"""Correctness checks on the files each op writes.

Every op's output file must have the SHA-256 stored in reference.json for
that op (the seed only orders the ops, so the same digests hold for every
seed).  Two rules are checked on every analyze report on their own: a
rational POLYTOPE is certified, and the cross-check never disagrees.
"""

from __future__ import annotations

import hashlib
import json


def observe(raw: bytes, kind: str, exact: bool):
    """(digests, problems) for the bytes one op wrote."""
    digests = {"sha256": hashlib.sha256(raw).hexdigest()}
    if kind == "render":
        return digests, []
    return digests, rule_problems(json.loads(raw), exact)


def rule_problems(report, exact):
    """Rules every analyze report must satisfy, independent of any reference."""
    problems = []
    decision = report["decision"]
    if exact and decision["verdict"] == "POLYTOPE" and not decision["certified"]:
        problems.append("rational POLYTOPE is not certified")
    if report["sw_check"]["status"] == "disagree":
        problems.append("cross_check.status is disagree")
    return problems


def compare(observed, reference):
    """Problems found comparing observed digests with the stored reference."""
    if reference is None:
        return ["no reference entry"]
    return [
        f"{key} {observed.get(key)!r} != reference {value!r}"
        for key, value in reference.items()
        if observed.get(key) != value
    ]

"""The immutable result records: NamedTuples, their subclasses, and Polytope.

Every record rejects attribute assignment, equals and hashes by its field
values, reprs as Name(field=value, ...), and (but for Polytope, a plain
class) builds a changed copy with _replace.  Importing the command line
loads neither dataclasses nor inspect.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fractalhull
from fractalhull import cli, decide, ifs, spectral
from fractalhull.hull import Polytope, convex_hull
from fractalhull.ifs import EpAddress
from fractalhull.linalg import ToleranceConfig


def _square():
    return convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))])


def _records():
    """One instance of every record type, its fields all set."""
    tol = ToleranceConfig(1e-8, 1e-7, 12)
    lam = spectral.EigenvalueClass(0.5j, 0.5, math.pi / 2, (1, 2))
    bound = spectral.StepBound((lam,), 4, "product")
    normal_check = spectral.NormalCheck((1, 0), 3)
    normal_result = spectral.NormalCriterionResult("polytope", (normal_check,), 64)
    row = decide.CountRow(1, 4, 0.25)
    decision = decide.Decision("POLYTOPE", True, 2, ((0, 0),), None)
    check = decide.CertCheck("address_evaluation", True, "4 vertices")
    model = ifs.validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [0, 1]])
    return [
        tol,
        lam,
        bound,
        spectral.SpectrumCheck(True, None, ("w",), (0.5, 0.5), (2, -2, 1)),
        normal_check,
        normal_result,
        row,
        decision,
        check,
        decide.CertResult(True, True, (check,), None),
        decide.CrossCheckSection("agree", normal_result),
        decide.Report((lam,), bound, (row,), decision, None, None, (), "0.1.0"),
        cli.ModelOptions("lcm", 10, 3),
        model,
        EpAddress((1,), (2, 0)),
        ifs.VertexLedger(2, _square(), ((0, 0),)),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_rejects_assignment(record):
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in record._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_equality_hash_and_repr_follow_the_fields(record):
    values = [getattr(record, name) for name in record._fields]
    twin = type(record)(*values)
    assert twin == record and hash(twin) == hash(record)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, values))
    assert repr(record) == f"{type(record).__name__}({fields})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_replace_changes_one_field(record):
    name = record._fields[-1]
    value = (3,) if isinstance(record, EpAddress) else 7
    changed = record._replace(**{name: value})
    assert type(changed) is type(record)
    assert getattr(changed, name) == value and changed != record
    assert all(getattr(changed, other) == getattr(record, other) for other in record._fields[:-1])
    assert changed._replace(**{name: getattr(record, name)}) == record


def test_model_keeps_its_cached_values_behind_the_read_only_fields():
    model = ifs.validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [0, 1]])
    assert "eigenvalues" in vars(model) and "lattice" not in vars(model)
    assert model.lattice[1] == 2 and "lattice" in vars(model)
    with pytest.raises(AttributeError):
        model.lattice = None


def test_polytope_equals_hashes_and_reprs_by_its_five_fields():
    names = ("ambient_dim", "affine_dim", "vertices", "faces", "facets")
    exact = _square()  # a lattice polytope: vertices and facets built when read
    values = [getattr(exact, name) for name in names]
    plain = Polytope(*values)
    assert plain == exact and hash(plain) == hash(exact)
    assert repr(plain) == repr(exact) == "Polytope({})".format(
        ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    )
    assert plain != Polytope(*values[:3]) and plain != tuple(values)
    for name in names + ("lattice", "extra"):
        with pytest.raises(AttributeError):
            setattr(plain, name, 0)
    with pytest.raises(AttributeError):
        del plain.vertices


def test_ep_address_reduces_its_period_on_construction():
    address = EpAddress([1, 2], [0, 1, 0, 1, 0, 1])
    assert address == EpAddress((1, 2), (0, 1))
    assert address.prefix == (1, 2) and address.period == (0, 1)
    assert address._replace(period=(2, 2, 2)).period == (2,)
    with pytest.raises(ValueError, match="period must be nonempty"):
        EpAddress((1,), ())
    with pytest.raises(ValueError, match="period must be nonempty"):
        address._replace(period=())


@pytest.mark.parametrize("prefix, period", [((1, 2), (0, 1)), ((), (0, 1, 1)), ((), (2,))])
def test_ep_address_shift_is_a_constructed_address(prefix, period):
    address = EpAddress(prefix, period)
    for _ in range(5):
        shifted = address.shift()
        digits = address.truncate(8)[1:]
        built = EpAddress(shifted.prefix, shifted.period)
        assert shifted == built and hash(shifted) == hash(built) and repr(shifted) == repr(built)
        assert type(shifted) is EpAddress and shifted.truncate(7) == digits
        address = shifted


def test_tolerance_config_validates_every_construction():
    assert ToleranceConfig() == ToleranceConfig(1e-9, 1e-9, 64)
    assert ToleranceConfig(denom_max=8) == (1e-9, 1e-9, 8)
    for bad in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            ToleranceConfig(eps_geom=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            ToleranceConfig(angle_tol=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            ToleranceConfig()._replace(eps_geom=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="denom_max must be at least 1"):
            ToleranceConfig(denom_max=bad)
        with pytest.raises(ValueError, match="denom_max must be at least 1"):
            ToleranceConfig()._replace(denom_max=bad)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = Path(fractalhull.__file__).resolve().parent.parent
    probe = "import sys, fractalhull.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"

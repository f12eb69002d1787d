"""Module boundaries: no module reaches into another's private names, and
no top-level function or class is left without a user."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import fractalhull

PACKAGE = Path(fractalhull.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# decide.hull_steps calls ifs._step through decide's module global because the
# benchmark tracer wraps decide._step as well as ifs._step.
ALLOWED = {("decide", "ifs", "_step")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path):
    """(other module, private name) for each import or attribute read of one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # local name -> package module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = alias.name
            elif node.module in MODULES:
                uses += [(node.module, alias.name) for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            uses.append((aliases[node.value.id], node.attr))
    return uses


def test_no_private_names_across_modules():
    found = {
        (path.stem, module, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _private_uses(path)
        if module != path.stem
    }
    assert found <= ALLOWED


def test_private_use_detector_sees_both_forms(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import linalg\nfrom .hull import _fvec, contains\nlinalg._mode_of(1)\n",
        encoding="utf-8",
    )
    assert sorted(_private_uses(source)) == [("hull", "_fvec"), ("linalg", "_mode_of")]


def _unused_definitions(package, exported):
    """module.name for each top-level function or class of the package's modules
    that is not in exported and that no source in the package names outside
    its own definition (its decorators included)."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    found = []
    for stem, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = lines[: first - 1] + lines[node.end_lineno :]
            others = ["\n".join(rest)] + [other for name, other in sources.items() if name != stem]
            pattern = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(pattern.search(other) for other in others):
                found.append(f"{stem}.{node.name}")
    return found


def test_every_definition_has_a_user():
    assert _unused_definitions(PACKAGE, set(fractalhull.__all__)) == []


def test_unused_definition_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return lonely() + used()\n\n\n"
        "@decorate\nclass Exported:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("def decorate(cls):\n    return cls\n", encoding="utf-8")
    assert _unused_definitions(tmp_path, {"Exported"}) == ["a.lonely"]
    assert _unused_definitions(tmp_path, set()) == ["a.lonely", "a.Exported"]

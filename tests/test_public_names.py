"""Every public top-level function and class of the package has a caller in
the package or in the benchmark.  A helper that only tests use belongs in
tests/oracles.py (or nowhere); ALLOWED lists the exceptions and why."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusdescent"

ALLOWED = {
    "serialize_point": "inverse of parse_point_file; a CLI point writer is planned "
                       "(ROADMAP item 8)",
}


def _sources():
    yield from sorted(PACKAGE.glob("*.py"))
    yield from (path for path in sorted((ROOT / "perfbench").rglob("*.py"))
                if "tests" not in path.relative_to(ROOT).parts)


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _references():
    """Every name read anywhere, except a definition's reads of its own name."""
    seen = set()
    for path in _sources():
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            seen.update(name for name in _names(node) if name != own)
    return seen


def test_every_public_definition_has_a_caller_outside_tests():
    referenced = _references()
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if name not in referenced and name not in ALLOWED]
    assert not unused, f"public but only tests use them: {unused}"


def test_allowlist_holds_only_unreferenced_definitions():
    defined = {name for _, name in _public_definitions()}
    referenced = _references()
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & referenced

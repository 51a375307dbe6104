"""Every public top-level function and class of the package, and every
public method of a public class, has a caller in the package or in the
benchmark.  A helper that only tests use belongs in tests/oracles.py (or
nowhere); ALLOWED lists the exceptions and why.  A re-export in
__init__.py is no caller: it only names the definition.

A method counts as called when its name is read as an attribute anywhere
outside its own body.  An operator names no class, so a call of an
arithmetic dunder such as __mul__ cannot be seen in the source: every
arithmetic dunder of a public class needs an ALLOWED entry.  Nor can a
name read tell apart two classes that define a method of that name:
SHARED_METHODS names, for each such name, the caller of each class."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusdescent"

ALLOWED = {
    "serialize_point": "inverse of parse_point_file; a CLI point writer is planned "
                       "(ROADMAP item 9)",
    "Certificate.from_dict": "inverse of as_dict; the planned check-cert subcommand "
                             "reads certificates with it (ROADMAP item 4)",
}

# method name -> {defining class: its caller outside the tests, as
# "module.function" or "module.Class.method"}, for every method name that
# two or more public classes define.  The entries are checked by reading the
# caller, not by resolving types; a new shared name fails until it is added.
SHARED_METHODS = {
    "as_dict": {"descent.Certificate": "cli.cmd_descend",
                "descent.DescentBounds": "descent._certificate",
                "descent.HypothesisReport": "descent.descend"},
    "sort_key": {"arith.Place": "arith.Place.__lt__",
                 "conditiond.GElement": "descent._pick_elements"},
}

_OPERATORS = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod",
              "pow", "lshift", "rshift", "and", "xor", "or")
ARITHMETIC_DUNDERS = (
    {f"__{op}__" for op in _OPERATORS}
    | {f"__r{op}__" for op in _OPERATORS}
    | {f"__i{op}__" for op in _OPERATORS}
    | {"__neg__", "__pos__", "__abs__", "__invert__"}
)

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sources():
    yield from (path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py")
    yield from (path for path in sorted((ROOT / "perfbench").rglob("*.py"))
                if "tests" not in path.relative_to(ROOT).parts)


def _reads(node, own=frozenset()):
    """Every name read under node, except a definition's reads of its own
    name (a class's or method's, in its body)."""
    if isinstance(node, _DEFINITIONS):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    else:
        name = None
    if name is not None and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, own)


def _public_definitions():
    """(module, name) of every public top-level definition, and
    (module, "Class.method") of every public or arithmetic method of a
    public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFINITIONS) and (
                            not member.name.startswith("_")
                            or member.name in ARITHMETIC_DUNDERS):
                        yield path.stem, f"{node.name}.{member.name}"


def _references():
    seen = set()
    for path in _sources():
        seen.update(_reads(ast.parse(path.read_text())))
    return seen


def _is_referenced(name, referenced):
    last = name.rpartition(".")[2]
    return last not in ARITHMETIC_DUNDERS and last in referenced


def test_every_public_definition_has_a_caller_outside_tests():
    referenced = _references()
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if not _is_referenced(name, referenced) and name not in ALLOWED]
    assert not unused, f"public but only tests use them: {unused}"


def test_allowlist_holds_only_unreferenced_definitions():
    defined = {name for _, name in _public_definitions()}
    referenced = _references()
    assert set(ALLOWED) <= defined
    assert not [name for name in ALLOWED if _is_referenced(name, referenced)]



def _definition(module, qualname):
    """The ast node of a top-level function or class method of the package."""
    node = ast.parse((PACKAGE / f"{module}.py").read_text())
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, _DEFINITIONS) and child.name == name)
    return node


def test_every_shared_method_name_names_a_caller_per_class():
    owners = defaultdict(set)
    for module, name in _public_definitions():
        cls, _, method = name.partition(".")
        if method:
            owners[method].add(f"{module}.{cls}")
    shared = {method: classes for method, classes in owners.items() if len(classes) > 1}
    assert shared == {method: set(callers) for method, callers in SHARED_METHODS.items()}
    for method, callers in SHARED_METHODS.items():
        for caller in callers.values():
            module, _, qualname = caller.partition(".")
            assert method in set(_reads(_definition(module, qualname))), (method, caller)

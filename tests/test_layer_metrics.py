"""The benchmark's per-layer metrics name spans of functions in src/.

perfbench/run.py reads each metric off the span of one function; renaming
or deleting that function would make the metric read 0 without an error.
The metric list and perfbench/spans.py's SPEC_METHODS are read with `ast`,
so the benchmark is not imported.
"""

import ast
import importlib
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# spans whose functions are gone already; their metrics always read 0
KNOWN_DEAD = {"selmer.relative_dual_selmer", "arith.local_square_class",
              "selmer.dimension_identity", "arith.hensel_solve", "selmer.relative_fiber",
              "arith.square_class"}


def _literal(path, name):
    with open(os.path.join(ROOT, "perfbench", path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/{path}")


def test_every_layer_metric_names_a_recorded_function():
    spec_methods = _literal("spans.py", "SPEC_METHODS")
    spans = {f"{layer}.{span}" for layer, span, _ in _literal("run.py", "LAYER_METRICS")
             if span is not None}
    assert KNOWN_DEAD <= spans
    missing = []
    for name in sorted(spans - KNOWN_DEAD):
        layer, attr = name.split(".")
        module = importlib.import_module(f"torusdescent.{layer}")
        obj = vars(module).get(attr)
        # the recorder wraps public functions, every function of descent,
        # and the SurfaceSpec methods in SPEC_METHODS
        recorded = (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or layer == "descent"))
        if layer == "surface" and attr in spec_methods:
            recorded = callable(module.SurfaceSpec.__dict__.get(attr))
        if not recorded:
            missing.append(name)
    assert missing == []


def test_known_dead_names_no_function_of_its_module():
    """The check above exempts KNOWN_DEAD, so an entry whose function still
    exists would hide that function's metric if it came to read 0."""
    alive = []
    for name in sorted(KNOWN_DEAD):
        layer, attr = name.split(".")
        if attr in vars(importlib.import_module(f"torusdescent.{layer}")):
            alive.append(name)
    assert alive == []


def test_traced_spec_methods_stay_in_the_class_dict():
    """The span recorder wraps each method named in SPEC_METHODS by looking
    it up in SurfaceSpec.__dict__."""
    spec_class = importlib.import_module("torusdescent.surface").SurfaceSpec
    for name in _literal("spans.py", "SPEC_METHODS"):
        assert callable(spec_class.__dict__.get(name)), name

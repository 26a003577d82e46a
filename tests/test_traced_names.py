"""Every per-layer name the benchmark reads must exist in the program.

``BENCHMARK.json`` lists per-layer metrics ``<layer>.<name>.calls`` and
``<layer>.<name>.self_s``.  A traced benchmark run (``perfbench/run.py
--trace 1``) wraps the public functions defined in each ``cobforge.<layer>``
module, plus ``TruncatedPoly.__mul__`` and ``SimplePolytope.__init__``, and
then looks each listed metric up; a name the program no longer defines makes
that run raise ``KeyError``.  This test fails first.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# Traced methods and the (class, attribute) they are read from.
METHODS = {
    "TruncatedPoly.mul": ("TruncatedPoly", "__mul__"),
    "SimplePolytope.init": ("SimplePolytope", "__init__"),
}


def traced_names():
    """(layer, name) for every ``.calls`` or ``.self_s`` per-layer metric."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = set()
    for entry in spec["per_layer"]:
        stem, _, metric = entry["name"].rpartition(".")
        if metric in ("calls", "self_s"):
            layer, _, name = stem.partition(".")
            names.add((layer, name))
    return sorted(names)


def is_traced(layer, name):
    module = importlib.import_module(f"cobforge.{layer}")
    if name in METHODS:
        cls, attr = METHODS[name]
        return inspect.isfunction(getattr(getattr(module, cls, None), attr, None))
    obj = getattr(module, name, None)
    return (
        not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


def test_benchmark_per_layer_names_are_defined():
    names = traced_names()
    assert len(names) >= 20, names
    missing = [f"{layer}.{name}" for layer, name in names if not is_traced(layer, name)]
    assert not missing, f"traced names the program does not define: {missing}"

"""Every per-layer name the benchmark reads must exist in the program.

``BENCHMARK.json`` lists per-layer metrics ``<layer>.<name>.calls`` and
``<layer>.<name>.self_s``.  A traced benchmark run (``perfbench/run.py
--trace 1``) wraps the public functions defined in each ``cobforge.<layer>``
module, plus ``TruncatedPoly.__mul__`` and ``SimplePolytope.__init__``, and
then looks each listed metric up; a name the program no longer defines makes
that run raise ``KeyError``.  This test fails first.  A second test runs the
tracer itself on an oracle call that multiplies, since no workload does: it
patches ``TruncatedPoly.__rmul__`` too and reads ``coeffs`` on every product.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import cobforge
from cobforge.chern import ProjBundleSpec

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
TRACER = ROOT / "perfbench" / "tracer.py"

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


def load_tracer():
    """``perfbench/tracer.py``, loaded from its file: ``perfbench`` is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_oracle_products():
    # no workload multiplies, so only this run reaches the tracer's hooks on
    # TruncatedPoly: it patches __mul__ and __rmul__ by name and reads coeffs
    tracer_module = load_tracer()
    for layer in tracer_module.LAYERS:
        importlib.import_module(f"cobforge.{layer}")
    # three summand groups of nonzero degree: four tops of three factors
    spec = ProjBundleSpec((2, 1), ((1, 0), (0, 1), (1, -2), (0, 0), (0, 0)), True)
    tracer = tracer_module.Tracer()
    tracer.install(cobforge)
    try:
        cobforge.chern.milnor_projectivisation(spec)
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times(0, tracer.mark())
    assert calls["chern.milnor_projectivisation"] == 1
    assert calls["chern.TruncatedPoly.mul"] == 4
    assert tracer.counters["chern.TruncatedPoly.mul.term_pairs"] > 0

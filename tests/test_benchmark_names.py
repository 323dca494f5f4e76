"""The per-layer metric names of BENCHMARK.json resolve in the tracer.

A traced benchmark run (``perfbench/run.py --trace 1``) refuses when
BENCHMARK.json names a per-layer metric that the tracer cannot produce,
as after a rename or deletion of a function it wraps.  This test
applies the rule of ``per_layer`` in ``perfbench/run.py`` without
running the benchmark: a name is either derived from the spans as a
whole, or it is a wrapped span name followed by one metric key.
``perfbench/tracer.py`` is loaded by path and BENCHMARK.json is only
read; neither is modified.
"""

import importlib
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_per_layer_metric_names_a_wrapped_callable():
    tracer = _tracer()
    mods = {m: importlib.import_module("ttperm." + m) for m in tracer.MODULES}
    wrapped = {name for name, _ in tracer._targets(mods)}
    # the names per_layer in perfbench/run.py computes from all spans
    derived = {"trace.overhead_s", "fail_ratio", "cli.run_s",
               "trace.coverage", "homotopy.hom_basis_cache.entries",
               "homotopy.hom_basis_cache.hit_ratio",
               "homotopy.equiv.cones_per_search"}
    derived.update("%s.%s" % (mod, key) for mod in tracer.MODULES
                   for key in ("self_s", "calls", "import_s"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    unknown = [name for name in names if name not in derived
               and name.rsplit(".", 1)[0] not in wrapped]
    assert not unknown
    # the tracer sizes the hom basis cache with len()
    assert len(mods["homotopy"]._HOM_BASIS_CACHE) >= 0

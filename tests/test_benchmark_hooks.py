"""The names the traced benchmark run patches must exist in corekit.

``perfbench/spans.py`` wraps corekit's functions and constructors by name
and reads the population cache's statistics; a rename or a deleted cache
would otherwise break only the traced run. The module's source is read and
executed here, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

import corekit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_names_exist():
    spans = _load_spans()
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(getattr(corekit, module), attr, None)), f"{module}.{attr}"
    for module, cls, method in spans.METHODS:
        assert method in vars(getattr(getattr(corekit, module), cls)), f"{module}.{cls}.{method}"


def test_tracer_reads_the_population_cache():
    # the readout calls distinct_core_partitions.cache_info()
    metrics = _load_spans().Tracer(corekit).layer_metrics()
    assert metrics["consecutive.population_builds"] >= 0

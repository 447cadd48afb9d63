"""The names the benchmark relies on must exist in corekit.

``perfbench/spans.py`` wraps corekit's functions and constructors by name
and reads the population cache's statistics, and the verify-all workload
requires every check in ``perfbench/workloads.py``'s ``VERIFY_CHECKS`` to
pass; a rename or a deleted cache would otherwise break only the benchmark.
The modules' sources are only read here, so nothing is written under
``perfbench/``.
"""

import ast
import types
from pathlib import Path

import corekit
from corekit import verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_verify_checks_are_registered():
    # read with ast: executing workloads.py needs it registered in sys.modules
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "VERIFY_CHECKS"
    )
    assert names and set(names) <= set(verify.checks_for("all"))

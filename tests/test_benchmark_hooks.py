"""The names the benchmark relies on must exist in corekit.

``perfbench/spans.py`` wraps corekit's functions and constructors by name
and reads the population cache's statistics, and the verify-all workload
requires every check in ``perfbench/workloads.py``'s ``VERIFY_CHECKS`` to
pass; a rename or a deleted cache would otherwise break only the benchmark.
``bench/eq2_crossover.py``, which refits the eq2 cost constants, runs in no
test, so the names it imports from perfbench and calls in ``series``, and
the fields it reads of an eq2 request's record, are checked here too. Last, the benchmark's own self-test runs every workload at
a tiny size, plain and traced, against this checkout, so a change that would
make a workload fail or answer wrongly fails here first. It runs in a
subprocess with ``PYTHONDONTWRITEBYTECODE=1``, and the other tests only read
the modules' sources, so nothing is written under ``perfbench/``.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import corekit
from corekit import series, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CROSSOVER = Path(__file__).resolve().parents[1] / "bench" / "eq2_crossover.py"
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


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_eq2_crossover_names_exist():
    tree = ast.parse(CROSSOVER.read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in ("run", "worker")
        for alias in node.names
    ]
    assert sorted(imported) == [("run", "REFERENCE_MS"), ("worker", "reference_ms")]
    for module, name in imported:
        assert name in _top_level_names(PERFBENCH / f"{module}.py"), f"{module}.{name}"
    # what its code calls, and the budget its docstring names
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "series"
    }
    for name in called | {"EQ2_ROUTES", "eq2_costs", "_largest_admitted", "SERIES_BUDGET_S"}:
        assert hasattr(series, name), f"series.{name}"
    # the fields it reads of each name bound to series._residue_bounds(...)
    records = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "series._residue_bounds"
        for target in node.targets
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in records
    }
    assert {"state_bytes", "dp_bytes"} <= read
    fields = series._residue_bounds(2, 10)._fields
    for name in read:
        assert name in fields, f"series._residue_bounds(...).{name}"


def test_benchmark_self_test_passes():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=PERFBENCH.parent,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]

"""The verify runner: each check once, serially, in registry order, on the
window the registry declares for it.

A crashing check is also covered through the CLI in ``test_cli.py``.
"""

import ast
import inspect
import threading
from pathlib import Path

import pytest

from corekit import CheckReport, Partition, consecutive, verify
from corekit.partitions import _trusted_partition
from corekit.verify import Bound, Check

# (t_max, n_max) requests: the defaults, the CLI's floor, one inside only the
# widest windows (tt1.table, tt1.ladder and genfun.dfs_vs_closed) and one past
# every window's top. The CLI caps neither bound: the windows are the caps.
REQUESTS = ((None, None), (2, 0), (64, 240), (10**6, 10**6))

# Every check's params at each request, in the order its report lists them.
WINDOWS = {
    "eta.roundtrip": (
        {"t_max": 8, "n_max": 30}, {"t_max": 2, "n_max": 0}, {"t_max": 12, "n_max": 40},
        {"t_max": 12, "n_max": 40},
    ),
    "eta.support": (
        {"t_max": 8, "n_max": 30}, {"t_max": 2, "n_max": 0}, {"t_max": 12, "n_max": 40},
        {"t_max": 12, "n_max": 40},
    ),
    "eta.vector_roundtrip": (
        {"t_max": 8, "n_max": 30}, {"t_max": 2, "n_max": 0}, {"t_max": 12, "n_max": 40},
        {"t_max": 12, "n_max": 40},
    ),
    "genfun.coefficient_bounds": (
        {"t_max": 8, "limit": 40}, {"t_max": 2, "limit": 0}, {"t_max": 12, "limit": 60},
        {"t_max": 12, "limit": 60},
    ),
    "genfun.dfs_vs_closed": ({"limit": 200}, {"limit": 0}, {"limit": 240}, {"limit": 2000}),
    "genfun.dfs_vs_oracle": (
        {"t_max": 7, "limit": 60}, {"t_max": 2, "limit": 0}, {"t_max": 10, "limit": 80},
        {"t_max": 10, "limit": 80},
    ),
    "genfun.support_soundness": (
        {"t_max": 8, "limit": 40}, {"t_max": 2, "limit": 0}, {"t_max": 12, "limit": 60},
        {"t_max": 12, "limit": 60},
    ),
    "kernel.beta_algebra": ({"n_max": 40}, {"n_max": 0}, {"n_max": 48}, {"n_max": 48}),
    "kernel.column_hooks": ({"n_max": 25}, {"n_max": 0}, {"n_max": 40}, {"n_max": 40}),
    "kernel.core_predicates": (
        {"t_max": 12, "n_max": 30}, {"t_max": 2, "n_max": 0}, {"t_max": 20, "n_max": 40},
        {"t_max": 20, "n_max": 40},
    ),
    "kernel.distinct_equivalence": ({"n_max": 40}, {"n_max": 0}, {"n_max": 48}, {"n_max": 48}),
    "kernel.distinct_pair_reach": ({"t_max": 12}, {"t_max": 2}, {"t_max": 14}, {"t_max": 14}),
    "kernel.pair_core_band": ({"t_max": 10}, {"t_max": 2}, {"t_max": 10}, {"t_max": 10}),
    "kernel.pair_enumeration": (
        {"gap_cells_max": 20}, {"gap_cells_max": 20}, {"gap_cells_max": 20},
        {"gap_cells_max": 20},
    ),
    "tt1.count_fibonacci": (
        {"t_max": 30, "gap_check_t_max": 9},
        {"t_max": 2, "gap_check_t_max": 2},
        {"t_max": 32, "gap_check_t_max": 9},
        {"t_max": 32, "gap_check_t_max": 9},
    ),
    "tt1.extremes": ({"t_max": 25}, {"t_max": 2}, {"t_max": 26}, {"t_max": 26}),
    "tt1.ladder": ({"t_max": 60}, {"t_max": 4}, {"t_max": 64}, {"t_max": 88}),
    "tt1.size_bound": ({"t_max": 15}, {"t_max": 2}, {"t_max": 22}, {"t_max": 22}),
    "tt1.table": (
        {"t_max": 60, "definitional_t_max": 25},
        {"t_max": 2, "definitional_t_max": 2},
        {"t_max": 64, "definitional_t_max": 25},
        {"t_max": 90, "definitional_t_max": 25},
    ),
    "tt1.total_size": ({"t_max": 25}, {"t_max": 2}, {"t_max": 26}, {"t_max": 26}),
}


def test_registry_names_every_pinned_check():
    assert sorted(verify.checks_for("all")) == sorted(WINDOWS)


def test_suites_partition_the_registry_in_order():
    for name in verify.CHECKS:
        suite, dot, rest = name.partition(".")
        assert dot and rest and suite in verify.SUITE_NAMES, name
    assert verify.SUITE_NAMES == ("kernel", "eta", "genfun", "tt1")
    suites = [list(verify.checks_for(suite)) for suite in verify.SUITE_NAMES]
    assert [name for names in suites for name in names] == list(verify.checks_for("all"))


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'ker'"):
        verify.checks_for("ker")


def test_report_passes_iff_it_has_no_counterexample():
    passed = CheckReport("kernel.ok", {"n_max": 3}, None, 1.0)
    failed = CheckReport("kernel.bad", {"n_max": 3}, "witness", 1.0)
    assert passed.passed and passed.status == "pass"
    assert not failed.passed and failed.status == "fail"
    assert failed.to_json_dict()["status"] == "fail"


def test_report_is_defined_by_the_runner():
    # every field is required: each report comes from run_check
    assert CheckReport is verify.CheckReport
    assert not (Path(verify.__file__).parent / "report.py").exists()
    with pytest.raises(TypeError):
        CheckReport("kernel.ok", {"n_max": 3})


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_window_is_pinned(monkeypatch, name):
    calls = []

    def stub(**params):  # the sweep's place: record its arguments, find nothing
        calls.append(params)

    monkeypatch.setitem(verify.CHECKS, name, verify.CHECKS[name]._replace(sweep=stub))
    for (t_max, n_max), expected in zip(REQUESTS, WINDOWS[name], strict=True):
        report = verify.run_check(name, t_max, n_max)
        assert report.passed and report.check == name
        assert list(report.params.items()) == list(expected.items())
    assert calls == list(WINDOWS[name])


def test_run_suite_runs_each_check_once_in_order(monkeypatch):
    events = []
    window = {"t_max": Bound("t_max", 8, 2, 12), "n_max": Bound("n_max", 30, 0, 40)}

    def check(name):
        def sweep(t_max, n_max):
            events.append(("run", name, threading.get_ident()))

        return Check(sweep, window)

    names = ["kernel.zeta", "kernel.alpha", "kernel.mu"]
    monkeypatch.setattr(verify, "CHECKS", {name: check(name) for name in names})
    reports = verify.run_suite(
        "kernel", t_max=3, n_max=5, progress=lambda name: events.append(("start", name))
    )
    caller = threading.get_ident()
    assert events == [e for name in names for e in (("start", name), ("run", name, caller))]
    assert [r.check for r in reports] == sorted(names)
    assert all(r.params == {"t_max": 3, "n_max": 5} and r.elapsed_ms > 0 for r in reports)


def test_crashing_check_reports_its_window(monkeypatch):
    def crash(t_max):
        raise RuntimeError("injected")

    check = Check(crash, {"t_max": Bound("t_max", 5, 2, 9)})
    monkeypatch.setitem(verify.CHECKS, "kernel.crash", check)
    report = verify.run_check("kernel.crash", t_max=20)
    assert not report.passed
    assert report.params == {"t_max": 9}
    assert report.detail == "crashed: RuntimeError('injected')"


def test_empty_counterexample_is_a_failed_report(monkeypatch):
    for result in ("", False, 0):  # neither None nor a nonempty string
        check = Check(lambda n_max: result, {"n_max": Bound("n_max", 3, 0, 3)})
        monkeypatch.setitem(verify.CHECKS, "kernel.mute", check)
        report = verify.run_check("kernel.mute")
        assert not report.passed
        assert report.params == {"n_max": 3}
        assert report.detail == f"malformed result: {result!r}"


@pytest.mark.parametrize(
    "check, formula",
    [
        (verify.check_extremes, "largest_size"),
        (verify.check_extremes, "maximizer_count"),
        (verify.check_total_size, "total_size"),
    ],
)
def test_size_checks_catch_a_formula_off_by_one(monkeypatch, check, formula):
    original = getattr(consecutive, formula)
    monkeypatch.setattr(consecutive, formula, lambda t: original(t) + 1)
    assert check(t_max=12) is not None


@pytest.mark.parametrize(
    "t, bad",
    [
        (4, [(3,), (3,)]),  # an entry repeated
        (4, [(3,)]),  # one missing
        (4, [(3,), ()]),  # a core of the wrong size
        (4, [(3,), (1, 1, 1)]),  # a 4- and 5-core of size 3 with a repeated part
        (7, [(9,), (4, 3, 2)]),  # (9,) has size 9 and distinct parts, but hooks 7 and 8
    ],
)
def test_extremes_catches_wrong_maximizers(monkeypatch, t, bad):
    original = consecutive.maximizers

    def replaced(s):
        return [Partition(parts) for parts in bad] if s == t else original(s)

    monkeypatch.setattr(consecutive, "maximizers", replaced)
    assert verify.check_extremes(t_max=12) == f"t={t}: constructed maximizers differ from scan"


def test_extremes_revalidates_trusted_maximizers(monkeypatch):
    # (2, True) has the size, distinct parts and hooks of (2, 1); only the
    # validating constructor sees the bool, and the check fails on its error
    original = consecutive.maximizers
    bad = [_trusted_partition((3,)), _trusted_partition((2, True))]
    monkeypatch.setattr(consecutive, "maximizers", lambda s: bad if s == 4 else original(s))
    report = verify.run_check("tt1.extremes", 12)
    assert not report.passed and "got True" in report.detail, report.detail


def test_size_checks_build_no_population():
    population = consecutive.distinct_core_partitions
    population.cache_clear()
    for name in ("tt1.extremes", "tt1.total_size"):
        assert verify.run_check(name).passed
    assert population.cache_info().misses == 0


def test_later_eta_checks_reuse_the_roundtrip_scan():
    # all three eta checks read one window, so they ask for one cache entry
    assert verify.run_check("eta.roundtrip").passed
    misses = verify._cores_by_hook_filter.cache_info().misses
    for name in ("eta.support", "eta.vector_roundtrip"):
        assert verify.run_check(name).passed
    assert verify._cores_by_hook_filter.cache_info().misses == misses


def test_no_assert_statements_in_the_package():
    # python -O drops assert statements; a check must raise on its own
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def unquoted_fields(tree: ast.AST) -> list[str]:
    """``function:line`` of each f-string field inside a ``raise`` that
    quotes a value without ``partitions._shown``: a ``!r``, ``!s`` or ``!a``
    conversion, a ``str(...)`` or ``repr(...)`` call, or a bare parameter of
    the innermost enclosing function (``_require_ints``'s ``what``, a rule
    and not a value, is exempt)."""
    found: list[str] = []

    def quotes_raw(field: ast.FormattedValue, params: set[str]) -> bool:
        value = field.value
        if field.conversion != -1:
            return True
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_shown":
            return False
        if isinstance(value, ast.Name) and value.id in params:
            return True
        return any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("str", "repr")
            for node in ast.walk(value)
        )

    def scan(node: ast.AST, name: str, params: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                own = {a.arg for a in every if a is not None}
                scan(child, child.name, own - {"what"} if child.name == "_require_ints" else own)
            elif isinstance(child, ast.Raise):
                for fstring in ast.walk(child):
                    if isinstance(fstring, ast.JoinedStr):
                        found.extend(
                            f"{name}:{field.lineno}"
                            for field in fstring.values
                            if isinstance(field, ast.FormattedValue) and quotes_raw(field, params)
                        )
            else:
                scan(child, name, params)

    scan(tree, "<module>", set())
    return found


# _require_ints as it stood before _shown, quoting the refused value with !r
OLD_REQUIRE_INTS = """
def _require_ints(values, lo, what):
    for x in values:
        if type(x) is not int or x < lo:
            raise ValueError(f"{what}, got {x!r}")
"""


@pytest.mark.parametrize(
    "source, flagged",
    [
        (OLD_REQUIRE_INTS, ["_require_ints:5"]),
        ("def f(t):\n    raise ValueError(f'got {str(t)}')", ["f:2"]),
        ("def f(t):\n    raise ValueError(f'got {t}')", ["f:2"]),
        ("def f(t):\n    raise ValueError(f'got {_shown(t)} and {t + 1}')", []),
        ("def _require_ints(values, lo, what):\n    raise ValueError(f'{what}')", []),
    ],
    ids=["old-require-ints", "str-call", "bare-parameter", "shown", "what-exempt"],
)
def test_unquoted_fields_flags_raw_quotes(source, flagged):
    assert unquoted_fields(ast.parse(source)) == flagged


def test_refusals_quote_values_through_shown():
    """A tripwire, not the proof: it misses values read off attributes, such
    as ``self.modulus``, and messages built outside the ``raise`` statement.
    The tables of ``test_integer_arguments.py``, which call each refusal
    with a value too long to print, are the real test."""
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        found = unquoted_fields(ast.parse(path.read_text()))
        assert not found, f"{path.name}: unquoted values at {found}"


def test_table_reports_an_odd_ladder_row(monkeypatch):
    # seeding b_1 = 1 makes c_2 - b_2 odd; the ladder raises on it and
    # check_table, which has no parity test of its own, reports the error
    source = inspect.getsource(consecutive.sequence_table)
    seed = "b, c, d, phi, psi = ([0, 0] for _ in range(5))"
    assert source.count(seed) == 1
    namespace = dict(vars(consecutive))
    exec(source.replace(seed, f"{seed}\n    b[1] = 1"), namespace)
    monkeypatch.setattr(consecutive, "sequence_table", namespace["sequence_table"])
    assert verify.check_table(t_max=60, definitional_t_max=25) == (
        "c_2 - b_2 = -1 is odd; ladder is broken"
    )

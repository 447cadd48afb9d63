import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corekit import beta_set, cli, consecutive, cores, enumerate_partitions, series, verify

# A child interpreter imports the corekit under test from its source tree.
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)}


def run_ok(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_within_budget(capsys, argv, budget_s=5.0):
    """Run a command that must succeed within ``budget_s``; its stdout."""
    started = time.perf_counter()
    code, out, _ = run_ok(capsys, argv)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < budget_s, f"{' '.join(argv)} took {elapsed:.2f} s"
    return out


def distinct_census(t, limit):
    """Distinct-part t-cores per size, from the beta-set walk, which shares
    no code with either eq2 route."""
    census = [0] * (limit + 1)
    for _, size in cores._walk_cores(t, limit, True):
        census[size] += 1
    return census


def distinct_part_counts(limit):
    """q(n) for n <= limit, the partitions of n into distinct parts: the
    coefficients of the product of (1 + x^k) over k = 1..limit."""
    q = [1] + [0] * limit
    for k in range(1, limit + 1):
        for n in range(limit, k - 1, -1):
            q[n] += q[n - k]
    return q


def expect_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2


class TestSeriesCommand:
    def test_text_default_method(self, capsys):
        code, out, _ = run_ok(capsys, ["series", "--t", "3", "--limit", "9"])
        assert code == 0
        assert out.splitlines() == ["1", "1", "1", "0", "1", "0", "1", "0", "0", "1"]

    def test_limit_zero(self, capsys):
        code, out, _ = run_ok(capsys, ["series", "--t", "2", "--limit", "0"])
        assert code == 0
        assert out.splitlines() == ["1"]

    def test_limit_too_long_to_convert_is_out_of_range(self, capsys):
        # int() refuses over 4300 digits: the value is out of range, not junk,
        # and the refusal does not echo its digits
        expect_usage_error(["series", "--t", "3", "--limit", "9" * 5000])
        err = capsys.readouterr().err
        assert "out of range: 5000 digits" in err and "9" * 20 not in err

    @pytest.mark.parametrize(
        "option, value",
        [("--limit", "x" * 3000), ("--limit", "-" + "9" * 2999),
         ("--t", "x" * 3000), ("--limit", "9" * 3000)],
        ids=["limit-junk", "limit-negative", "t-junk", "limit-over-cap"],
    )
    def test_long_argument_is_not_echoed(self, capsys, option, value):
        # the usage error quotes a short prefix and the length, not the
        # argument, whether the parser or the library refuses it
        argv = ["series", "--t", "3", "--limit", "9"]
        argv[argv.index(option) + 1] = value
        expect_usage_error(argv)
        err = capsys.readouterr().err
        assert len(err.encode()) < 300
        assert "(3000 characters)" in err

    def test_json(self, capsys):
        code, out, _ = run_ok(
            capsys, ["series", "--t", "3", "--limit", "9", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {
            "t": 3,
            "limit": 9,
            "coeffs": [1, 1, 1, 0, 1, 0, 1, 0, 0, 1],
        }
        assert json.dumps(json.loads(out), separators=(",", ":")) == out.strip()

    def test_methods_agree(self, capsys):
        outputs = []
        for method in ("eq2", "closed", "oracle"):
            _, out, _ = run_ok(
                capsys, ["series", "--t", "4", "--limit", "30", "--method", method]
            )
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_closed_needs_small_modulus(self):
        expect_usage_error(["series", "--t", "5", "--limit", "9", "--method", "closed"])

    def test_oracle_cap(self):
        expect_usage_error(["series", "--t", "3", "--limit", "200", "--method", "oracle"])

    def test_oracle_at_its_cap_within_budget(self, capsys):
        # every n <= 60 is below t, so each coefficient is q(n), the number of
        # partitions of n into distinct parts
        limit = series.BRUTE_FORCE_CAP
        argv = ["series", "--t", "10000", "--limit", str(limit)]
        out = run_within_budget(capsys, [*argv, "--method", "oracle", "--format", "json"])
        q = [sum(1 for _ in enumerate_partitions(n, distinct_only=True)) for n in range(limit + 1)]
        assert json.loads(out)["coeffs"] == q
        argv[-1] = str(limit + 1)
        expect_usage_error([*argv, "--method", "oracle"])

    def test_rejects_t_below_two(self):
        expect_usage_error(["series", "--t", "1", "--limit", "5"])

    @pytest.mark.parametrize("t", [2, 3])
    def test_cap_within_budget(self, capsys, t):
        # the largest limit the CLI accepts must answer in seconds at small t,
        # where eq2 runs the walk. At t = 2 and 3 the walk has one or two
        # residue positions, each summed in one loop over its entry.
        limit = series.SERIES_LIMIT_CAP
        argv = ["series", "--t", str(t), "--limit", str(limit), "--format", "json"]
        closed = series.distinct_core_series_closed(t, limit)
        assert json.loads(run_within_budget(capsys, argv))["coeffs"] == list(closed.coeffs)

    @pytest.mark.parametrize("t", [20, 40])
    def test_large_t_within_budget(self, capsys, t):
        # eq2 runs the residue DP here; listing the vectors would take hours
        # (1.8e8 of them at t = 20)
        limit = 500
        argv = ["series", "--t", str(t), "--limit", str(limit), "--format", "json"]
        coeffs = json.loads(run_within_budget(capsys, argv))["coeffs"]
        assert len(coeffs) == limit + 1
        # every distinct-part partition of n < t avoids hook t
        distinct = [sum(1 for _ in enumerate_partitions(n, distinct_only=True)) for n in range(t)]
        assert coeffs[:t] == distinct
        # the brute-force oracle takes under 0.5 s per t at n <= 50, below its
        # cap of 60, and the beta-set walk's census, independent of the DP,
        # checks n <= 80
        assert coeffs[:51] == list(series.distinct_core_series_brute(t, 50).coeffs)
        assert coeffs[:81] == distinct_census(t, 80)

    def test_largest_admitted_limit_within_budget(self, capsys):
        # at t = 6 the walk serves the largest limit the estimate admits, and
        # its first coefficients must equal the beta-set walk's census
        t = 6
        lo = series._largest_admitted(t)
        argv = ["series", "--t", str(t), "--limit", str(lo), "--format", "json"]
        out = run_within_budget(capsys, argv, series.SERIES_BUDGET_S)
        assert json.loads(out)["coeffs"][:201] == distinct_census(t, 200)
        argv[4] = str(lo + 1)
        expect_usage_error(argv)

    @pytest.mark.parametrize("limit", [500, series._largest_admitted(1000)], ids=["500", "largest"])
    def test_thousand_within_budget(self, capsys, limit):
        # every n <= limit is below t = 1000, so each coefficient is q(n), the
        # number of partitions of n into distinct parts: the DP's slots are
        # sized by p(top), not by the far larger count of tuples, and its
        # positions stop at the limit, past which no hook reaches
        argv = ["series", "--t", "1000", "--limit", str(limit), "--format", "json"]
        out = run_within_budget(capsys, argv, series.SERIES_BUDGET_S)
        assert json.loads(out)["coeffs"] == distinct_part_counts(limit)

    def test_t_past_every_position_within_budget(self, capsys):
        # no cap on --t: at t = 100001 every n <= 500 is below t, so each
        # coefficient is q(n)
        argv = ["series", "--t", "100001", "--limit", "500", "--format", "json"]
        out = run_within_budget(capsys, argv, series.SERIES_BUDGET_S)
        assert json.loads(out)["coeffs"] == distinct_part_counts(500)

    def test_rejects_estimate_over_budget(self, capsys):
        # 2.5e11 walk nodes; the DP state would need gigabytes
        expect_usage_error(["series", "--t", "8", "--limit", "1000000"])
        assert "budget" in capsys.readouterr().err
        # an estimate of 5.00001 s, which three digits would print as the budget
        expect_usage_error(["series", "--t", "11", "--limit", "6508"])
        err = capsys.readouterr().err
        assert "estimated at 5.00001" in err and "admitted at t=11 is 6507" in err
        # at the cap of --limit, with positions past it, the refusal and its
        # search stay quick
        started = time.perf_counter()
        expect_usage_error(["series", "--t", "1000001", "--limit", "1000000"])
        assert time.perf_counter() - started < 1.0
        assert "admitted at t=1000001 is 927" in capsys.readouterr().err

    def test_refusal_out_of_estimate_names_no_time(self, capsys):
        # both estimates are infinite: the DP state is over its cap, and the
        # walk's node bound is past what a float holds
        expect_usage_error(["series", "--t", "10000", "--limit", "1000000"])
        err = capsys.readouterr().err
        assert "inf" not in err and "out of reach" in err
        assert "admitted at t=10000 is 927" in err


class TestEnumerateCommand:
    def test_text(self, capsys):
        code, out, _ = run_ok(capsys, ["enumerate", "--t1", "2", "--t2", "3"])
        assert code == 0
        assert out.splitlines() == [
            "parts=[] size=0 beta=[]",
            "parts=[1] size=1 beta=[1]",
        ]

    def test_distinct_json(self, capsys):
        code, out, _ = run_ok(
            capsys,
            ["enumerate", "--t1", "4", "--t2", "5", "--distinct", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 5
        assert [p["size"] for p in payload["partitions"]] == [0, 1, 2, 3, 3]
        assert payload["partitions"][4] == {"parts": [2, 1], "size": 3, "beta": [3, 1]}
        assert json.dumps(payload, separators=(",", ":")) == out.strip()

    def test_beta_lists_match_the_beta_set(self, capsys):
        # each beta list is read off the parts; the rendering from beta_set
        # itself must come out byte for byte the same
        found = cores.enumerate_simultaneous_cores(4, 5)
        rows = [
            {
                "parts": list(p.parts),
                "size": sum(p.parts),
                "beta": sorted(beta_set(p), reverse=True),
            }
            for p in found
        ]
        _, text, _ = run_ok(capsys, ["enumerate", "--t1", "4", "--t2", "5"])
        assert text == "".join(
            f"parts={r['parts']} size={r['size']} beta={r['beta']}\n" for r in rows
        )
        _, out, _ = run_ok(capsys, ["enumerate", "--t1", "4", "--t2", "5", "--format", "json"])
        payload = {"t1": 4, "t2": 5, "distinct": False, "count": len(rows), "partitions": rows}
        assert out == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_rejects_non_coprime(self):
        expect_usage_error(["enumerate", "--t1", "4", "--t2", "6"])

    def test_rejects_oversized_gap_set(self):
        expect_usage_error(["enumerate", "--t1", "12", "--t2", "13"])

    def test_rejects_huge_pair_at_once(self, capsys):
        # refused on the gap count alone, before any sieve or allocation
        started = time.perf_counter()
        expect_usage_error(["enumerate", "--t1", "20000", "--t2", "20001"])
        assert time.perf_counter() - started < 1.0
        assert "has more than 50 gap cells" in capsys.readouterr().err

    def test_refuses_a_gap_count_too_long_to_print(self, capsys):
        # (t1 - 1)(t2 - 1)/2 has over 4300 digits, more than str() converts
        started = time.perf_counter()
        expect_usage_error(["enumerate", "--t1", str(10**21), "--t2", "7" * 4290])
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "has more than 50 gap cells" in err and "Exceeds the limit" not in err

    @pytest.mark.parametrize(
        "t1, t2", [("9" * 3000, "2"), ("9" * 3000, "9" * 3000)], ids=["t1-long", "both-long"]
    )
    def test_long_moduli_are_not_echoed(self, capsys, t1, t2):
        # the gap-set and the coprimality refusals clip each long modulus
        expect_usage_error(["enumerate", "--t1", t1, "--t2", t2])
        err = capsys.readouterr().err
        assert len(err.encode()) < 300
        assert "(3000 characters)" in err

    @pytest.mark.parametrize("distinct", [[], ["--distinct"]], ids=["all", "distinct"])
    def test_pair_with_one_answers_at_once(self, capsys, distinct):
        # every nonempty partition has a corner box of hook length 1, so the
        # empty partition is the one core, however large the partner
        argv = ["enumerate", "--t1", "1", "--t2", str(10**21), *distinct]
        assert run_within_budget(capsys, argv, budget_s=1.0) == "parts=[] size=0 beta=[]\n"

    @pytest.mark.parametrize("pair", [(9, 13), (8, 15), (2, 101)])
    def test_cap_within_budget(self, capsys, pair):
        # the largest pairs with at most 50 gap cells must answer in seconds
        t1, t2 = pair
        argv = ["enumerate", "--t1", str(t1), "--t2", str(t2), "--format", "json"]
        payload = json.loads(run_within_budget(capsys, argv))
        assert payload["count"] == len(payload["partitions"]) == cores.anderson_count(t1, t2)
        assert max(p["size"] for p in payload["partitions"]) == cores.olsson_stanton_max(t1, t2)


class TestStatsCommand:
    def test_text(self, capsys):
        code, out, _ = run_ok(capsys, ["stats", "--t", "4"])
        assert code == 0
        assert out.splitlines() == [
            "count=5",
            "largest_size=3",
            "maximizer_count=2",
            "maximizers=[[3], [2, 1]]",
            "total_size=9",
            "average_size=9/5",
        ]

    def test_small_t(self, capsys):
        code, out, _ = run_ok(capsys, ["stats", "--t", "2"])
        assert code == 0
        assert "count=2" in out and "average_size=1/2" in out

    def test_json(self, capsys):
        code, out, _ = run_ok(capsys, ["stats", "--t", "4", "--format", "json"])
        payload = json.loads(out)
        assert payload["count"] == 5
        assert payload["average_size"] == "9/5"
        assert payload["maximizers"][0] == {"parts": [3], "size": 3, "beta": [3]}

    def test_rejects_t_one(self):
        expect_usage_error(["stats", "--t", "1"])

    def test_cap_within_budget(self, capsys):
        # the largest t the CLI accepts must answer in seconds, not minutes
        t = cli.STATS_T_CAP
        out = run_within_budget(capsys, ["stats", "--t", str(t), "--format", "json"])
        # F, phi (double convolution) and psi (triple) from n = 1 up to t + 1:
        # phi_n = phi_{n-1} + phi_{n-2} + F_{n-1}, psi_n = psi_{n-1} + psi_{n-2} + phi_{n-1}
        f_prev, f = 0, 1
        phi_prev, phi = 0, 0
        psi_prev, psi = 0, 0
        for _ in range(2, t + 2):
            psi_prev, psi = psi, psi + psi_prev + phi
            phi_prev, phi = phi, phi + phi_prev + f
            f_prev, f = f, f + f_prev
        payload = json.loads(out)
        assert payload["count"] == f
        assert payload["total_size"] == psi


class TestTableCommand:
    def test_csv(self, capsys):
        code, out, _ = run_ok(capsys, ["table", "--t-max", "5"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "t,a,b,c,d,e,phi,psi,F"
        assert lines[1] == "2,2,1,1,1,1,1,0,1"
        assert lines[4] == "5,8,10,16,25,22,10,9,5"

    def test_json_round_trips_byte_identically(self, capsys):
        _, out, _ = run_ok(capsys, ["table", "--t-max", "8", "--format", "json"])
        reserialized = json.dumps(json.loads(out), separators=(",", ":"))
        assert reserialized == out.strip()

    def test_cap(self):
        expect_usage_error(["table", "--t-max", "91"])


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_ok(
            capsys,
            ["verify", "--suite", "genfun", "--t-max", "4", "--n-max", "20"],
        )
        assert code == 0
        assert "passed 4/4 checks" in out
        assert "running" in err  # progress goes to stderr only

    def test_all_suite_small(self, capsys):
        code, out, _ = run_ok(
            capsys,
            ["verify", "--suite", "all", "--t-max", "4", "--n-max", "12", "--jobs", "2"],
        )
        assert code == 0
        assert "passed 20/20 checks" in out

    def test_json_output(self, capsys):
        code, out, _ = run_ok(
            capsys,
            [
                "verify",
                "--suite",
                "eta",
                "--t-max",
                "4",
                "--n-max",
                "10",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"total": 3, "passed": 3, "failed": 0}
        names = [c["check"] for c in payload["checks"]]
        assert names == sorted(names)

    def test_deterministic_modulo_elapsed(self, capsys):
        argv = ["verify", "--suite", "eta", "--t-max", "3", "--n-max", "8", "--format", "json"]
        _, first, _ = run_ok(capsys, argv)
        _, second, _ = run_ok(capsys, argv + ["--jobs", "2"])  # --jobs is ignored

        def strip_elapsed(text):
            payload = json.loads(text)
            for check in payload["checks"]:
                check.pop("elapsed_ms")
            return payload

        assert strip_elapsed(first) == strip_elapsed(second)

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def broken():
            return "forced counterexample"

        monkeypatch.setattr(verify, "CHECKS", {"kernel.broken": verify.Check(broken, {})})
        code, out, _ = run_ok(capsys, ["verify", "--suite", "kernel"])
        assert code == 1
        assert "FAIL kernel.broken" in out
        assert "forced counterexample" in out

    def test_crashing_check_exits_one(self, capsys, monkeypatch):
        def crash():
            raise RuntimeError("injected")

        monkeypatch.setattr(verify, "CHECKS", {"kernel.crash": verify.Check(crash, {})})
        code, out, _ = run_ok(capsys, ["verify", "--suite", "kernel"])
        assert code == 1
        assert "FAIL kernel.crash" in out
        assert "crashed: RuntimeError('injected')" in out

    def test_floor_bounds_pass(self, capsys):
        argv = ["verify", "--suite", "all", "--t-max", "2", "--n-max", "0", "--format", "json"]
        code, out, _ = run_ok(capsys, argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["summary"] == {"total": 20, "passed": 20, "failed": 0}
        total_size = next(c for c in payload["checks"] if c["check"] == "tt1.total_size")
        assert total_size["params"] == {"t_max": 2}

    def test_bounds_past_every_window_are_clamped(self, capsys, monkeypatch):
        # each check's window is the only cap on --t-max and --n-max
        argv = ["verify", "--suite", "tt1", "--t-max", "1000", "--format", "json"]
        code, out, _ = run_ok(capsys, argv)
        params = {c["check"]: c["params"] for c in json.loads(out)["checks"]}
        assert code == 0 and json.loads(out)["t_max"] == 1000
        assert params["tt1.table"] == {"t_max": 90, "definitional_t_max": 25}
        assert params["tt1.ladder"] == {"t_max": 88}
        # the one genfun check that reaches n = 2000; the others take seconds there
        closed = {"genfun.dfs_vs_closed": verify.CHECKS["genfun.dfs_vs_closed"]}
        monkeypatch.setattr(verify, "CHECKS", closed)
        argv = ["verify", "--suite", "genfun", "--n-max", "100000", "--format", "json"]
        code, out, _ = run_ok(capsys, argv)
        assert code == 0 and json.loads(out)["checks"][0]["params"] == {"limit": 2000}

    def test_unknown_suite_is_a_usage_error(self, capsys):
        # the library refuses the name before any check runs; the parser
        # repeats no check of its own
        expect_usage_error(["verify", "--suite", "junk"])
        err = capsys.readouterr().err
        assert "error: unknown suite 'junk'" in err
        assert all(repr(name) in err for name in (*verify.SUITE_NAMES, "all"))

    def test_help_names_every_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--help"])
        assert excinfo.value.code == 0
        suite_help = capsys.readouterr().out.rsplit("--suite SUITE", 1)[1].split("--t-max", 1)[0]
        for name in (*verify.SUITE_NAMES, "all"):
            assert re.search(rf"\b{name}\b", suite_help), name


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corekit", "stats", "--t", "2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "count=2" in proc.stdout


# Which corekit modules a fresh interpreter has loaded: after the imports,
# after the four commands that need no verification suite, after verify.
STARTUP_PROBE = """
import contextlib, io, sys
import corekit, corekit.cli
loaded = ["corekit.verify" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["series", "--t", "3", "--limit", "9"], ["enumerate", "--t1", "2", "--t2", "3"],
                 ["stats", "--t", "3"], ["table", "--t-max", "3"]):
        assert corekit.cli.main(argv) == 0, argv
    loaded.append("corekit.verify" in sys.modules)
    assert corekit.cli.main(["verify", "--suite", "tt1", "--t-max", "3"]) == 0
loaded.append("corekit.verify" in sys.modules)
print(loaded)
"""


def test_only_verify_loads_the_suite():
    """``import corekit`` and every command but ``verify`` start without
    compiling or running the verification suite. This process has loaded
    it already, so one fresh interpreter runs the probe."""
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True]"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--t1", "8", "--t2", "15"],
        ["enumerate", "--t1", "8", "--t2", "15", "--format", "json"],
        ["verify", "--suite", "all", "--t-max", "2", "--n-max", "0", "--format", "json"],
    ],
    ids=["enumerate-text", "enumerate-json", "verify-json"],
)
def test_closed_stdout_exits_quietly(argv):
    """A reader that stops early (``| head``) ends the command with exit 1
    and no traceback. Our end of the pipe is closed before the child
    writes, so its first write fails."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "corekit", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    assert proc.returncode == 1


def test_missing_command_is_usage_error():
    expect_usage_error([])


def series_agree(lines, payload):
    assert [int(line) for line in lines] == payload["coeffs"]


def enumerate_agree(lines, payload):
    assert payload["count"] == len(lines) > 0
    for line, p in zip(lines, payload["partitions"], strict=True):
        assert line == f"parts={p['parts']} size={p['size']} beta={p['beta']}"


def stats_agree(lines, payload):
    text = dict(line.split("=", 1) for line in lines)
    assert ["t", *text] == list(payload)
    assert ast.literal_eval(text.pop("maximizers")) == [m["parts"] for m in payload["maximizers"]]
    assert text == {name: str(payload[name]) for name in text}


def table_agree(lines, payload):
    header, *rows = (line.split(",") for line in lines)
    assert len(rows) == len(payload["rows"]) == payload["t_max"] - 1
    for row, record in zip(rows, payload["rows"], strict=True):
        assert header == list(record)
        assert row == [str(value) for value in record.values()]


def verify_agree(lines, payload):
    *reports, summary = lines
    assert [line.split()[:2] for line in reports] == [
        [c["status"].upper(), c["check"]] for c in payload["checks"]
    ]
    counts = payload["summary"]
    assert summary == f"passed {counts['passed']}/{counts['total']} checks"


AGREE = {
    "series": series_agree,
    "enumerate": enumerate_agree,
    "stats": stats_agree,
    "table": table_agree,
    "verify": verify_agree,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--t", "3", "--limit", "9"],
        ["series", "--t", "7", "--limit", "80"],
        ["series", "--t", "4", "--limit", "30", "--method", "closed"],
        ["enumerate", "--t1", "4", "--t2", "5", "--distinct"],
        ["enumerate", "--t1", "3", "--t2", "7"],
        ["enumerate", "--t1", "1", "--t2", "5"],
        ["stats", "--t", "2"],
        ["stats", "--t", "4"],
        ["stats", "--t", "40"],
        ["table", "--t-max", "2"],
        ["table", "--t-max", "30"],
        ["verify", "--suite", "tt1", "--t-max", "6"],
        ["verify", "--suite", "eta", "--t-max", "3", "--n-max", "6"],
    ],
    ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
)
def test_text_and_json_agree(capsys, monkeypatch, argv):
    """Each command's text (CSV for table) and JSON carry the same answer."""
    if argv[0] == "verify":  # a failing check, so that the output shows both statuses
        broken = verify.Check(lambda: "forced counterexample", {})
        checks = {**verify.CHECKS, "tt1.broken": broken, "eta.broken": broken}
        monkeypatch.setattr(verify, "CHECKS", checks)
    text_format = "csv" if argv[0] == "table" else "text"
    text_code, text, _ = run_ok(capsys, [*argv, "--format", text_format])
    json_code, out, _ = run_ok(capsys, [*argv, "--format", "json"])
    assert text_code == json_code == int(argv[0] == "verify")
    AGREE[argv[0]](text.splitlines(), json.loads(out))


# Every numeric option with the largest value its parser or library admits,
# or for an option nothing caps, a value past where its work stops growing.
# enumerate caps the pair's gap cells, not t1 or t2: (2, 101) is the largest
# pair with 2 and at most 50 cells. stats caps --t at STATS_T_CAP in the parser.
# series --t 1000001 has a position for every limit up to the cap; verify
# clamps into each check's window, whose largest tops are 90 and 2000, and
# reads no --jobs.
NUMERIC_OPTIONS = {
    "series": {"--t": 1_000_001, "--limit": series.SERIES_LIMIT_CAP},
    "enumerate": {"--t1": 101, "--t2": 101},
    "stats": {"--t": cli.STATS_T_CAP},
    "table": {"--t-max": consecutive.TABLE_CAP},
    "verify": {"--t-max": 90, "--n-max": 2000, "--jobs": 256},
}
CHOICE_OPTIONS = {
    "series": {"--method": tuple(cli.SERIES_METHODS), "--format": ("json", "text")},
    "enumerate": {"--format": ("json", "text")},
    "stats": {"--format": ("json", "text")},
    "table": {"--format": ("csv", "json")},
    "verify": {"--suite": (*verify.SUITE_NAMES, "all"), "--format": ("json", "text")},
}
# int() takes the Arabic-Indic three and "1_0"; a 5000-digit number is over
# its default 4300-digit limit
JUNK = ("", "abc", "1.5", "1e3", "0x10", "--", "\u0663", "1_0")


def edge_values(cap):
    """An option's values: omitted (None), its edges, sizes no machine int
    holds, and junk."""
    return st.sampled_from(
        (None, "0", "1", "2", str(cap), str(cap + 1), "-1", str(10**21), "1" + "0" * 4999, *JUNK)
    )


@st.composite
def argvs(draw, command):
    """``command`` with each option omitted, at an edge value, or junk."""
    argv = [command]
    for option, cap in NUMERIC_OPTIONS[command].items():
        value = draw(edge_values(cap))
        if value is not None:
            argv += [option, value]
    for option, choices in CHOICE_OPTIONS[command].items():
        value = draw(st.sampled_from((None, *choices, "junk")))
        if value is not None:
            argv += [option, value]
    if command == "enumerate" and draw(st.booleans()):
        argv.append("--distinct")
    return argv


def accepted_at_cap_work(argv):
    """Accepted commands that take seconds or more, which the within-budget
    tests time instead: a series admitted at the limit cap, and verify at
    any bound past 3 or left at its default (seconds, and up to a minute
    at its largest windows)."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli._build_parser().parse_args(argv)
    except SystemExit:
        return False  # a usage error
    if args.command == "series":
        return args.limit == series.SERIES_LIMIT_CAP and args.t <= 3
    if args.command == "verify":
        bounds = (args.t_max, args.n_max)
        return None in bounds or max(bounds) > 3
    return False


class TestArgvEdges:
    """Every subcommand answers or refuses each edge value at once: exit 0,
    1 or 2 and no traceback."""

    @pytest.mark.parametrize("command", sorted(NUMERIC_OPTIONS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_answers_or_refuses_within_budget(self, command, data):
        argv = data.draw(argvs(command))
        if accepted_at_cap_work(argv):
            return
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert time.perf_counter() - started < 1.0, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "error:" in err.getvalue(), argv
        else:
            assert out.getvalue(), argv


class TestOneProcess:
    def test_calls_in_one_process_share_the_parser_and_nothing_else(self, capsys):
        # the parser is built once; a refusal, a stats call and a series call
        # after it each exit and print as they would alone
        parser = cli._build_parser()
        expect_usage_error(["series", "--t", "10000", "--limit", "1000000"])
        out = capsys.readouterr()
        assert out.out == "" and "out of reach" in out.err
        code, out, err = run_ok(capsys, ["stats", "--t", "5"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "count=8",
            "largest_size=5",
            "maximizer_count=1",
            "maximizers=[[3, 2]]",
            "total_size=22",
            "average_size=11/4",
        ]
        code, out, err = run_ok(capsys, ["series", "--t", "3", "--limit", "9", "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"t": 3, "limit": 9, "coeffs": [1, 1, 1, 0, 1, 0, 1, 0, 0, 1]}
        assert cli._build_parser() is parser
        # no option of an earlier call leaks into a later one's namespace
        assert vars(parser.parse_args(["stats", "--t", "5"])).keys() == {
            "command", "t", "format", "handler"
        }

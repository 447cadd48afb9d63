import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corekit import beta_set, cli, cores, enumerate_partitions, series, verify

# A child interpreter imports the corekit under test from its source tree.
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)}


def run_ok(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def distinct_census(t, limit):
    """Distinct-part t-cores per size, from the beta-set walk, which shares
    no code with either eq2 route."""
    census = [0] * (limit + 1)
    for _, _, size in cores._walk_cores(t, limit, True):
        census[size] += 1
    return census


def largest_admitted(t):
    """The largest limit whose cheaper eq2 estimate fits the series budget."""
    lo, hi = 0, series.SERIES_LIMIT_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if min(series.eq2_costs(t, mid).values()) <= cli.SERIES_BUDGET_S:
            lo = mid
        else:
            hi = mid
    return lo


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
        limit, budget_s = series.BRUTE_FORCE_CAP, 5.0
        argv = ["series", "--t", str(cli.SERIES_T_CAP), "--limit", str(limit)]
        started = time.perf_counter()
        code, out, _ = run_ok(capsys, [*argv, "--method", "oracle", "--format", "json"])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < budget_s, f"{' '.join(argv)} --method oracle took {elapsed:.2f} s"
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
        limit, budget_s = series.SERIES_LIMIT_CAP, 5.0
        started = time.perf_counter()
        code, out, _ = run_ok(
            capsys, ["series", "--t", str(t), "--limit", str(limit), "--format", "json"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < budget_s, f"series --t {t} --limit {limit} took {elapsed:.2f} s"
        closed = series.distinct_core_series_closed(t, limit)
        assert json.loads(out)["coeffs"] == list(closed.coeffs)


    @pytest.mark.parametrize("t", [20, 40])
    def test_large_t_within_budget(self, capsys, t):
        # eq2 runs the residue DP here; listing the vectors would take hours
        # (1.8e8 of them at t = 20)
        limit, budget_s = 500, 5.0
        started = time.perf_counter()
        code, out, _ = run_ok(
            capsys, ["series", "--t", str(t), "--limit", str(limit), "--format", "json"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < budget_s, f"series --t {t} --limit {limit} took {elapsed:.2f} s"
        coeffs = json.loads(out)["coeffs"]
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
        lo = largest_admitted(t)
        argv = ["series", "--t", str(t), "--limit", str(lo), "--format", "json"]
        started = time.perf_counter()
        code, out, _ = run_ok(capsys, argv)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < cli.SERIES_BUDGET_S, f"{' '.join(argv)} took {elapsed:.2f} s"
        assert json.loads(out)["coeffs"][:201] == distinct_census(t, 200)
        argv[4] = str(lo + 1)
        expect_usage_error(argv)

    @pytest.mark.parametrize("limit", [500, largest_admitted(1000)], ids=["500", "largest"])
    def test_thousand_within_budget(self, capsys, limit):
        # every n <= limit is below t = 1000, so each coefficient is q(n), the
        # number of partitions of n into distinct parts: the DP's slots are
        # sized by p(2 * top), not by the far larger count of tuples, and its
        # positions stop at the limit, past which no hook reaches
        t = 1000
        argv = ["series", "--t", str(t), "--limit", str(limit), "--format", "json"]
        started = time.perf_counter()
        code, out, _ = run_ok(capsys, argv)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < cli.SERIES_BUDGET_S, f"{' '.join(argv)} took {elapsed:.2f} s"
        q = [1] + [0] * limit  # the product of (1 + x^k) over k = 1..limit
        for k in range(1, limit + 1):
            for n in range(limit, k - 1, -1):
                q[n] += q[n - k]
        assert json.loads(out)["coeffs"] == q

    def test_rejects_t_over_cap(self):
        expect_usage_error(["series", "--t", str(cli.SERIES_T_CAP + 1), "--limit", "1"])

    def test_rejects_estimate_over_budget(self, capsys):
        # 2.5e11 walk nodes; the DP state would need gigabytes
        expect_usage_error(["series", "--t", "8", "--limit", "1000000"])
        assert "budget" in capsys.readouterr().err


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
        assert "cells; cap is 50" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [(9, 13), (8, 15), (2, 101)])
    def test_cap_within_budget(self, capsys, pair):
        # the largest pairs with at most 50 gap cells must answer in seconds
        t1, t2 = pair
        budget_s = 5.0
        started = time.perf_counter()
        code, out, _ = run_ok(
            capsys, ["enumerate", "--t1", str(t1), "--t2", str(t2), "--format", "json"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < budget_s, f"enumerate ({t1}, {t2}) took {elapsed:.2f} s"
        payload = json.loads(out)
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
        t, budget_s = 10000, 5.0
        started = time.perf_counter()
        code, out, _ = run_ok(capsys, ["stats", "--t", str(t), "--format", "json"])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < budget_s, f"stats --t {t} took {elapsed:.2f} s"
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

        monkeypatch.setitem(verify.SUITES, "kernel", {"kernel.broken": verify.Check(broken, {})})
        code, out, _ = run_ok(capsys, ["verify", "--suite", "kernel"])
        assert code == 1
        assert "FAIL kernel.broken" in out
        assert "forced counterexample" in out

    def test_crashing_check_exits_one(self, capsys, monkeypatch):
        def crash():
            raise RuntimeError("injected")

        monkeypatch.setitem(verify.SUITES, "kernel", {"kernel.crash": verify.Check(crash, {})})
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

    def test_t_max_cap(self):
        expect_usage_error(["verify", "--suite", "all", "--t-max", "10000"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corekit", "stats", "--t", "2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "count=2" in proc.stdout


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

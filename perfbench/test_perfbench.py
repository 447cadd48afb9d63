"""Self-test of the benchmark; it runs each workload at a tiny size.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import types
import unittest

import run
import worker
import workloads

sys.path.insert(0, str(run.SRC))
import corekit  # noqa: E402
import corekit.cli  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class MetricsEmitted(unittest.TestCase):
    def assert_metrics(self, result: dict, declared: list[dict]) -> None:
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_benchmark_json_names_every_workload(self):
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(workloads.WORKLOADS))

    def test_every_workload_emits_every_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = run.run_workload(name, 7, 0.1, False, "tiny")
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                self.assert_metrics(plain, BENCH["end_to_end"])
                for m in plain["metrics"].values():
                    self.assertGreater(m["value"], 0)
                traced = run.run_workload(name, 7, 0.1, True, "tiny")
                self.assertTrue(traced["correct"])
                self.assert_metrics(traced, BENCH["per_layer"])

    def test_same_seed_same_batch(self):
        for name, spec in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(spec.batch(random.Random(3), False),
                                 spec.batch(random.Random(3), False))


def replace(module, **stubs):
    """A stand-in for a corekit module with some functions replaced."""
    return types.SimpleNamespace(**{**vars(module), **stubs})


class GateCatchesWrongAnswers(unittest.TestCase):
    def failed_ratio(self, name: str, program) -> float:
        spec = workloads.WORKLOADS[name]
        batch = spec.batch(random.Random(5), True)
        with contextlib.redirect_stderr(io.StringIO()):  # verify's progress lines
            answers, latencies, _ = worker.answer_batch(program, spec, batch)
        results, _ = worker.grade(program, spec, batch, answers, latencies)
        return sum(error is not None for _, error in results) / len(results)

    def test_unchanged_program_passes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.failed_ratio(name, corekit), 0.0)

    def test_wrong_coefficient_fails(self):
        real = corekit.series.distinct_core_series

        def off_by_one(t, limit):
            good = real(t, limit)
            coeffs = list(good.coeffs)
            coeffs[1] += 1
            return type(good)(tuple(coeffs), t=t)

        program = replace(corekit, series=replace(corekit.series, distinct_core_series=off_by_one))
        for name in ("series-wide", "series-deep"):
            with self.subTest(workload=name):
                self.assertGreater(self.failed_ratio(name, program), 0.0)

    def test_wrong_late_coefficient_fails(self):
        # past the brute-force prefix, at t without a closed form, only the
        # reference coefficients can catch this
        real = corekit.series.distinct_core_series

        def last_off_by_one(t, limit):
            good = real(t, limit)
            coeffs = list(good.coeffs)
            if t > 4 and limit > workloads.BRUTE_PREFIX:
                coeffs[-1] += 1
            return type(good)(tuple(coeffs), t=t)

        program = replace(corekit, series=replace(corekit.series, distinct_core_series=last_off_by_one))
        for name in ("series-wide", "series-deep"):
            with self.subTest(workload=name):
                self.assertGreater(self.failed_ratio(name, program), 0.0)

    def test_wrong_total_size_fails(self):
        real = corekit.consecutive.total_size
        consecutive = replace(corekit.consecutive, total_size=lambda t: real(t) + 1)
        program = replace(corekit, consecutive=consecutive)
        self.assertEqual(self.failed_ratio("stats-large", program), 1.0)

    def test_crashing_request_fails(self):
        def crash(t, limit):
            raise RuntimeError("injected")

        program = replace(corekit, series=replace(corekit.series, distinct_core_series=crash))
        self.assertEqual(self.failed_ratio("series-wide", program), 1.0)

    def test_failing_verify_check_fails(self):
        def one_check_fails(argv):
            checks = [{"check": n, "status": "pass", "elapsed_ms": 1.0}
                      for n in workloads.VERIFY_CHECKS]
            checks[0] = {**checks[0], "status": "fail", "detail": "injected"}
            print(json.dumps({"checks": checks}))
            return 1

        program = replace(corekit, cli=replace(corekit.cli, main=one_check_fails))
        self.assertGreater(self.failed_ratio("verify-all", program), 0.0)


if __name__ == "__main__":
    unittest.main()

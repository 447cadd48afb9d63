"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py SRC WORKLOAD SEED SCALE MODE

Imports corekit from SRC, builds the seeded batch and prints ``READY n at``:
n is the number of requests the batch counts as, and ``at`` is the moment
the first request can be sent, on the system-wide CLOCK_MONOTONIC. It then
answers the batch as a closed loop (MODE ``plain``; ``traced``, with the
layer spans of spans.py; or ``serial``, where each corekit command gets
``--jobs 1``), checks every answer outside the timed window and
prints one JSON line.

Everything but ``sys`` and ``time`` is imported after corekit, so that
``import_s`` covers every module corekit loads.
"""

import sys
import time


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def reference_ms() -> float:
    """Time of a fixed pure-Python kernel, in ms.

    It builds tuples and frozensets from a recursive generator, as corekit
    does, so the host's slow stretches slow it about as much as corekit's
    calls (see README.md). It is perfbench's own code, so a change to
    corekit does not move it.
    """
    start = time.perf_counter()
    tops = set()
    for p in _partitions(20, 20):
        k = len(p)
        tops.add(max(frozenset(x + k - i for i, x in enumerate(p, 1)), default=0))
    return (time.perf_counter() - start) * 1000.0


def answer_batch(corekit, spec, batch, serial=False):
    """Answer each request in turn.

    Returns the answers, each call's latency (ms) and the reference kernel's
    time around it (ms): the mean of its runs just before and just after.
    """
    import io
    from contextlib import redirect_stdout

    answers, latencies = [], []
    reference_ms()  # warm up
    refs = [reference_ms()]
    for request in batch:
        sent = time.perf_counter()
        try:
            if spec.answer is None:  # a CLI invocation
                out = io.StringIO()
                with redirect_stdout(out):
                    try:
                        code = corekit.cli.main(request + ["--jobs", "1"] if serial else request)
                    except SystemExit as exc:  # argparse rejects bad usage this way
                        code = exc.code
                answer = (code, out.getvalue())
            else:
                answer = spec.answer(corekit, request)
        except Exception as exc:  # a crashed request is a failed request
            answer = exc
        latencies.append((time.perf_counter() - sent) * 1000.0)
        answers.append(answer)
        refs.append(reference_ms())
    around = [(before + after) / 2.0 for before, after in zip(refs, refs[1:])]
    return answers, latencies, around


def grade(corekit, spec, batch, answers, latencies):
    """(latency_ms, error or None) per request, and the check times of a verify run."""
    import json

    import workloads

    results = []
    checks = {}
    if spec.answer is None:
        # one suite run answers one request per check, timed by the program
        answer = answers[0]
        code, text = answer if isinstance(answer, tuple) else (f"raised {answer!r}", "")
        try:
            checks = {c["check"]: c for c in json.loads(text)["checks"]}
        except (ValueError, KeyError, TypeError):
            checks = {}  # every check then counts as missing
        for name, error in workloads.verify_gate(checks, code):
            results.append((checks.get(name, {}).get("elapsed_ms", latencies[0]), error))
        return results, {n: c.get("elapsed_ms", 0.0) / 1000.0 for n, c in checks.items()}
    gate = spec.gate(corekit, batch)
    for request, answer, latency in zip(batch, answers, latencies):
        if isinstance(answer, Exception):
            error = f"{request}: raised {answer!r}"
        else:
            try:
                error = gate(request, answer)
            except Exception as exc:  # a malformed answer fails the gate
                error = f"{request}: gate raised {exc!r}"
        results.append((latency, error))
    return results, checks


def main(argv: list[str]) -> int:
    src, workload, seed, scale, mode = argv[1], argv[2], int(argv[3]), argv[4], argv[5]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import corekit.cli  # what the corekit entry point imports

    import_s = time.perf_counter() - started

    import json
    import os
    import random
    import resource

    import corekit
    import spans
    import workloads

    # a corekit installed elsewhere must not stand in for the checkout's
    expected = os.path.realpath(os.path.join(src, "corekit"))
    if os.path.dirname(os.path.realpath(corekit.__file__)) != expected:
        print(f"corekit imported from {corekit.__file__}, not {expected}", file=sys.stderr)
        return 3

    spec = workloads.WORKLOADS[workload]
    batch = spec.batch(random.Random(f"{workload}/{seed}"), scale == "tiny")
    size = len(workloads.VERIFY_CHECKS) if spec.answer is None else len(batch)
    print(f"READY {size} {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)

    tracer = spans.Tracer(corekit) if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    answers, latencies, refs = answer_batch(corekit, spec, batch, mode == "serial")
    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
    results, check_s = grade(corekit, spec, batch, answers, latencies)
    print(
        json.dumps(
            {
                "import_s": import_s,
                "wall_s": sum(latencies) / 1000.0,
                "calls_ms": latencies,
                "call_refs_ms": refs,
                # a suite run's checks share its one call's reference time
                "result_refs_ms": refs if len(refs) == len(results) else refs[:1] * len(results),
                "results": results,
                "check_s": check_s,
                "layers": layers,
                # kilobytes on Linux
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

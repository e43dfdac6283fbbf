"""One pass of a workload, in the fresh interpreter ``run.py`` starts for it.

Usage: ``python3 bench/worker.py WORKLOAD SEED TRACE OUT``.  Writes
the pass's timings, failures, outcome digests and (when TRACE is 1) its
trace to the JSON file OUT.

Set-up time runs from just before ``import cfkit`` to the last generated
input.  Verdicts run one after another, each waiting for the one before it;
their outcomes are checked against the references only after the timed loop.

The pass also times a fixed unit of exact-rational arithmetic: three times
before set-up, after any verdict that ends at least ``CALIBRATE_EVERY_S``
after the previous unit, and three times after the loop.  ``run.py`` scales
set-up by the median of the first three units and the verdicts by the
median of all of them, to one reference speed of the host.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CALIBRATE_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds one fixed unit of ``Fraction`` arithmetic takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    setup_unit = statistics.median(calibrate() for _ in range(3))
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cfkit  # noqa: F401  (timed: part of set-up)

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    home = os.getcwd()
    try:
        verdicts = workloads.setup(workload, seed, workdir)
        setup_s = time.perf_counter() - start
        outcomes, latencies = [], []
        units = [setup_unit]
        loop_start = last_unit = time.perf_counter()
        for i, verdict in enumerate(verdicts):
            if verdict.cwd is not None:
                os.chdir(verdict.cwd)
            if tracer is not None:
                tracer.verdict = i
            t0 = time.perf_counter()
            try:
                outcomes.append((verdict.call(), None))
            except Exception as exc:  # a raising verdict is counted, never fatal
                outcomes.append((None, f"raised {type(exc).__name__}: {exc}"))
            end = time.perf_counter()
            latencies.append(end - t0)
            if end - last_unit >= CALIBRATE_EVERY_S:
                units.append(calibrate())
                last_unit = time.perf_counter()
        loop_s = time.perf_counter() - loop_start
        units += [calibrate() for _ in range(3)]
        trace = None
        if tracer is not None:
            tracer.uninstall()
            trace = tracer.summary()
        failures = []
        for verdict, (outcome, error) in zip(verdicts, outcomes):
            if error is None:
                try:
                    error = verdict.check(outcome)
                except Exception as exc:
                    error = f"reference check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"input": verdict.name, "reason": error})
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "setup_unit_s": setup_unit,
        "names": [v.name for v in verdicts],
        "latencies_s": latencies,
        "loop_s": loop_s,
        "outcomes": [_digest(outcome) for outcome, _ in outcomes],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": statistics.median(units),
        "trace": trace,
    }


def _digest(outcome) -> str:
    """Short fingerprint of a verdict's outcome, for comparing two passes."""
    return hashlib.sha256(repr(outcome).encode("utf-8")).hexdigest()[:16]


def main(argv: list[str]) -> int:
    workload, seed, trace, out = argv
    result = run_pass(workload, int(seed), trace == "1")
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Time-to-verdict benchmark for cfkit: one closed-loop caller, one workload.

Usage (from the repository root)::

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Runs passes of the workload, each in a fresh worker interpreter, one after
another until ``--seconds`` have gone by and, with ``--trace 0``, at least
``MIN_BEYOND_P90`` latency samples lie beyond p90.  Prints a table of every
metric with its unit, then, as the last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  A traced run
alternates untraced and traced passes, at least two of each, reports
tracing overhead as the difference of their median loop times, and writes
its spans and counters to ``.bench_out/``.

Passes of one seed must repeat exactly: a verdict whose outcome differs from
the first pass's, or traced passes whose counters differ, count as failures.

Reported times are scaled to a reference host speed.  Each pass times a
fixed unit of ``Fraction`` arithmetic (``worker.calibrate``) before set-up
and between verdicts; set-up is multiplied by ``REFERENCE_UNIT_S`` over the
median unit timed before it, and every other time by ``REFERENCE_UNIT_S``
over the pass's median unit.  On a shared host whose speed drifts over tens
of seconds, this keeps a cfkit change visible while the drift cancels.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corpus", "random-maps", "rank-scale")
TIME_LIMIT_S = 170  # a run must end within 180 s
REFERENCE_UNIT_S = 0.010  # calibration unit time at the reference speed
MIN_BEYOND_P90 = 10  # latency samples that must lie beyond the reported p90
MIN_TRACED_PASSES = 2  # so that their counters can be compared

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_geomean_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.untraced_s": "s"}


def _run_worker(workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    out = ROOT / ".bench_work" / f"pass-{os.getpid()}-{index}.json"
    out.parent.mkdir(exist_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            "1" if traced else "0", str(out)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def _scaled(p: dict) -> tuple[float, float, list[float]]:
    """A pass's set-up time, loop time and verdict latencies at reference speed."""
    factor = REFERENCE_UNIT_S / p["calibration_s"]
    return (
        p["setup_s"] * REFERENCE_UNIT_S / p["setup_unit_s"],
        p["loop_s"] * factor,
        [s * factor for s in p["latencies_s"]],
    )


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    views = [_scaled(p) for p in passes]
    latencies_ms = [1000 * s for _, _, lat in views for s in lat]
    by_input: dict[str, list[float]] = {}
    for p, (_, _, lat) in zip(passes, views):
        for name, s in zip(p["names"], lat):
            by_input.setdefault(name, []).append(1000 * s)
    medians = [statistics.median(v) for v in by_input.values()]
    return {
        "setup_s": statistics.median(setup for setup, _, _ in views),
        "verdicts_per_s": statistics.median(len(lat) / loop for _, loop, lat in views),
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_p90": _p90(latencies_ms),
        "latency_geomean_ms": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _beyond_p90(samples: int) -> int:
    return samples - math.ceil(0.9 * samples)


def _per_layer(untraced: list[dict], traced: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Counts and ratios from the first traced pass, times as medians."""
    first = traced[0]["trace"]["metrics"]
    out = {}
    for name, unit in units.items():
        if unit == "s":
            out[name] = statistics.median(
                p["trace"]["metrics"][name] * REFERENCE_UNIT_S / p["calibration_s"]
                for p in traced
            )
        else:
            out[name] = first[name]
    untraced_s = statistics.median(_scaled(p)[1] for p in untraced)
    traced_s = statistics.median(_scaled(p)[1] for p in traced)
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.untraced_s"] = untraced_s
    return out


def _repeat_failures(passes: list[dict], traced: list[dict]) -> list[dict]:
    """Departures from the first pass: one seed must give the same verdicts,
    and traced passes the same counters."""
    failures = []
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        if p["names"] != first["names"]:
            failures.append({"input": f"pass {k}", "reason": "inputs differ from the first pass"})
            continue
        for name, want, got in zip(first["names"], first["outcomes"], p["outcomes"]):
            if got != want:
                failures.append({"input": name, "reason": f"pass {k} outcome differs from the first pass"})
    counters = traced[0]["trace"]["counters"] if traced else {}
    for k, p in enumerate(traced[1:], start=2):
        other = p["trace"]["counters"]
        differ = sorted(c for c in set(counters) | set(other) if counters.get(c) != other.get(c))
        if differ:
            failures.append({"input": f"traced pass {k}",
                             "reason": f"counters differ from the first traced pass: {', '.join(differ[:8])}"})
    return failures


def _write_trace(workload: str, seed: int, traced: list[dict], metrics: dict) -> Path:
    first = traced[0]["trace"]
    path = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "traced_passes": len(traced),
        "metrics": metrics,
        "counters": first["counters"],
        "self_s": first["self_s"],
        "span_fields": ["id", "parent", "verdict", "name", "start", "end", "self_s"],
        "spans": first["spans"],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cfkit" / "__init__.py").is_file():
        print(f"cfkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from tracer import LAYER_METRICS  # imports cfkit, whose sources are checked above

    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    untraced, traced = [], []
    while True:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        try:
            result = _run_worker(args.workload, args.seed, trace_this,
                                 len(untraced) + len(traced), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            return 1
        (traced if trace_this else untraced).append(result)
        if args.trace:
            enough = len(traced) >= MIN_TRACED_PASSES
        else:
            enough = _beyond_p90(sum(len(p["names"]) for p in untraced)) >= MIN_BEYOND_P90
        if enough and time.monotonic() - start >= args.seconds:
            break

    passes = untraced + traced
    attempted = sum(len(p["names"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]] + _repeat_failures(passes, traced)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, each in a fresh interpreter")
    for f in failures[:20]:
        print(f"FAIL {f['input']}: {f['reason']}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures")

    if args.trace:
        units = {**LAYER_METRICS, **TRACE_METRICS}
        metrics = _per_layer(untraced, traced, LAYER_METRICS)
        path = _write_trace(args.workload, args.seed, traced, metrics)
        print(f"spans and counters written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END
        metrics = _end_to_end(untraced)
        samples = sum(len(p["names"]) for p in untraced)
        print(f"latency samples: {samples} pooled over {len(untraced)} passes, "
              f"{_beyond_p90(samples)} beyond p90")
    error_rate = len(failures) / attempted
    unit_ms = statistics.median(1000 * p["calibration_s"] for p in passes)
    print(f"calibration unit: median {unit_ms:.3f} ms, reference {1000 * REFERENCE_UNIT_S:g} ms;"
          " times are scaled to the reference")
    for name, unit in units.items():
        print(f"  {name:38s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':38s} {error_rate:>14.6g} 1   ({len(failures)} of {attempted} verdicts)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

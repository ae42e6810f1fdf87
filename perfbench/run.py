#!/usr/bin/env python3
"""Closed-loop benchmark of the skewplus library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one thread: the next operation starts only after the previous
one returns.  An operation is one unit of work through the library's
public functions plus an exact check of its output (see workloads.py).
The library is imported from `src/` next to this directory and is not
modified; a run outside a full checkout exits with status 2 and prints
no result.

With --trace 0 the run measures for --seconds of operation time (and at
least MIN_OPS operations, ending on a whole schedule round) and reports
the end-to-end metrics, with times scaled to a reference machine speed
(see SpeedClock).  With --trace 1 it runs a fixed number of
operations, first untraced and then traced, and reports the per-layer
metrics; the count depends only on --workload and --seconds, so two
traced runs with the same arguments count exactly the same work.

The second-to-last line of stdout is a report (input digest of every
schedule round, environment, failures, slowest operation); the last line
is the result object.  Any failed operation makes the run exit with
status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
MIN_OPS = 100
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 120
# one calibration unit per CAL_PERIOD_S of measured work, at least
# CAL_MIN_UNITS; CAL_UNIT_REF_S is the unit's time on the reference
# machine (see SpeedClock)
CAL_PERIOD_S = 0.005
CAL_MIN_UNITS = 4
CAL_UNIT_REF_S = 250e-6


def load_library():
    """Import skewplus from this checkout's src/, or exit with status 2."""
    if not (SRC / "skewplus" / "__init__.py").is_file():
        print(f"error: no skewplus sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import skewplus
    if Path(skewplus.__file__).resolve().parent != (SRC / "skewplus").resolve():
        print(f"error: skewplus imported from {skewplus.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def tail_percentile(samples, pct: float):
    """Nearest-rank pct-th percentile of `samples`, refused (ValueError)
    unless at least TAIL_SAMPLES samples lie beyond it."""
    rank = math.ceil(pct / 100 * len(samples))
    if not samples or len(samples) - rank < TAIL_SAMPLES:
        raise ValueError(f"p{pct:g} of {len(samples)} samples has fewer than "
                         f"{TAIL_SAMPLES} samples beyond it")
    return sorted(samples)[rank - 1]


def summarize(latencies, round_len: int) -> dict:
    """End-to-end figures of a timed loop.

    `latencies` holds (seconds, passed) for every attempted operation in
    order, in whole schedule rounds of `round_len` operations.  The run is
    correct only if it attempted something and nothing failed.  Throughput
    is taken per round and the median reported, so one round disturbed by
    another process on the machine does not move it.
    """
    attempted = len(latencies)
    passed = [t for t, ok in latencies if ok]
    failed = attempted - len(passed)
    out = {"correct": attempted > 0 and failed == 0, "attempted": attempted, "failed": failed,
           "failed_ratio": failed / attempted if attempted else 1.0, "metrics": {}}
    if out["correct"]:
        rounds = [sum(t for t, _ in latencies[k:k + round_len])
                  for k in range(0, attempted, round_len)]
        out["metrics"] = {
            "ops_per_s": round_len / statistics.median(rounds),
            "latency_p50_ms": statistics.median(passed) * 1e3,
            "latency_p90_ms": tail_percentile(passed, 90) * 1e3,
        }
    return out


def calibration_unit():
    """Fixed interpreter-bound work, independent of the library."""
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = x * Fraction(i, i + 1) + Fraction(1, 7)
    return x


class SpeedClock:
    """Measured seconds, scaled to the speed of a reference machine.

    The machine is shared, and its speed drifts by 15-30% within seconds
    and between minutes, alike for every interpreter-bound task running on
    it.  After each measured piece of work, `add` runs calibration units in
    proportion to the work's duration (outside the measured time) and
    scales the work by CAL_UNIT_REF_S over their mean time: what the work
    would have taken at the reference speed.  The units run with the
    garbage collector off, so a collection owed to the work's own garbage
    falls in the work's time and is not read as machine slowness.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.cal = 0.0
        self.units = 0

    def add(self, seconds: float) -> float:
        """Account one piece of measured work; returns its scaled seconds."""
        units = max(CAL_MIN_UNITS, int(seconds / CAL_PERIOD_S))
        gc.disable()
        start = time.perf_counter()
        for _ in range(units):
            calibration_unit()
        cal = time.perf_counter() - start
        gc.enable()
        scaled = seconds * units * CAL_UNIT_REF_S / cal
        self.raw += seconds
        self.scaled += scaled
        self.cal += cal
        self.units += units
        return scaled

    def factor(self) -> float:
        """Mean calibration time over the reference: above 1 is slower."""
        return self.cal / self.units / CAL_UNIT_REF_S


class Inputs:
    """The seeded input stream of one workload: input i depends only on
    (seed, workload, i), so runs of any length agree on every input."""

    def __init__(self, name: str, seed: int, stream: str = "input"):
        from workloads import WORKLOADS
        self.workload = WORKLOADS[name]
        self.name, self.seed = name, seed
        self.tag = f"{seed}:{name}:{stream}"

    def get(self, i: int):
        schedule = self.workload.schedule
        cls = schedule[i % len(schedule)]
        return cls, self.workload.make(cls, random.Random(f"{self.tag}:{i}"))

    def round(self, k: int):
        """The (class, raw input) pairs of schedule round k."""
        n = len(self.workload.schedule)
        return [self.get(i) for i in range(k * n, (k + 1) * n)]


def digest(items) -> str:
    """sha256 of a list of (class, raw input) pairs."""
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def run_op(inputs, i, cls, raw):
    """One checked operation; returns (seconds, error or None)."""
    rng = random.Random(f"{inputs.seed}:{inputs.name}:{i}")
    start = time.perf_counter()
    try:
        inputs.workload.op(cls, raw, rng)
        error = None
    except Exception as exc:  # a failed operation is counted, never dropped
        error = f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - start, error


def warm_up(name, seed, stream="warmup", clock=None):
    """One schedule round on inputs of a separate stream: the first
    operations of a process run measurably slower than later ones."""
    warm = Inputs(name, seed, stream=stream)
    for j, (cls, raw) in enumerate(warm.round(0)):
        dt, _ = run_op(warm, -1 - j, cls, raw)
        if clock is not None:
            clock.add(dt)


def setup_probe(name, seed, probe):
    """Child process body: import, generate the first round, warm up.

    Each probe warms up on its own inputs, so one rare slow operation (a
    long surgery search in cycles-q) sets one probe's time, not the median.
    """
    clock = SpeedClock()
    start = time.perf_counter()
    load_library()
    from workloads import WORKLOADS  # noqa: F401  (part of the import cost)
    clock.add(time.perf_counter() - start)
    start = time.perf_counter()
    first = digest(Inputs(name, seed).round(0))
    clock.add(time.perf_counter() - start)
    warm_up(name, seed, f"warmup-{probe}", clock)
    print(json.dumps({"setup_s": clock.scaled, "raw_s": clock.raw, "digest": first}))


def measure_setup(name, seed, seconds):
    """Median set-up time over SETUP_REPEATS fresh processes, and the
    digest of their first round of inputs (they must all agree)."""
    samples = []
    for probe in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe),
             "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    digests = {probe["digest"] for probe in samples}
    if len(digests) != 1:
        raise RuntimeError(f"set-up probes disagree on the inputs: {sorted(digests)}")
    return statistics.median(p["setup_s"] for p in samples), digests.pop(), samples


def timed_loop(name, seed, seconds):
    """Whole schedule rounds until `seconds` of measured operation time and
    MIN_OPS operations.  Returns per-operation (scaled seconds, passed),
    the failures, the slowest operation, the measured seconds, the speed
    factor and the input digest of every round."""
    inputs = Inputs(name, seed)
    latencies, failures, factors, digests = [], [], [], []
    slowest = {"seconds": 0.0}
    busy, i = 0.0, 0
    while busy < seconds or len(latencies) < MIN_OPS:
        clock = SpeedClock()
        items = inputs.round(len(digests))
        digests.append(digest(items))
        for cls, raw in items:
            dt, error = run_op(inputs, i, cls, raw)
            latencies.append((clock.add(dt), error is None))
            if error is not None:
                failures.append({"op": i, "class": cls, "error": error})
            if dt > slowest["seconds"]:
                slowest = {"seconds": dt, "op": i, "class": cls}
            i += 1
        busy += clock.raw
        factors.append(clock.factor())
    return latencies, failures, slowest, busy, factors, digests


def traced_passes(name, seed, seconds):
    """The same fixed list of operations, untraced and then traced."""
    import workloads
    from tracer import Tracer

    inputs = Inputs(name, seed)
    rounds = [inputs.round(k)
              for k in range(max(1, round(inputs.workload.trace_rounds_per_s * seconds)))]
    ops = [op for items in rounds for op in items]
    failures, elapsed = [], []
    tracer = Tracer(extra_modules=[workloads])
    for traced in (False, True):
        if traced:
            tracer.install()
        clock = SpeedClock()
        try:
            for i, (cls, raw) in enumerate(ops):
                tracer.op_id = i
                dt, error = run_op(inputs, i, cls, raw)
                clock.add(dt)
                if error is not None:
                    failures.append({"op": i, "class": cls, "traced": traced, "error": error})
        finally:
            tracer.uninstall()
        elapsed.append(clock.scaled)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = elapsed[0] / elapsed[1]
    return len(ops), failures, metrics, tracer, [digest(items) for items in rounds]


def environment() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(), "system": platform.system()}


UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "pfaffian.eliminate_mean_size": "rows"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_yield", "_ratio")) else "count"


def main(argv=None) -> int:
    args = parse(argv)
    load_library()
    from workloads import WORKLOADS
    name, seed = args.workload, args.seed
    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(name, seed, args.setup_probe)
        return 0
    report = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    if args.trace:
        warm_up(name, seed)
        ops, failures, metrics, tracer, digests = traced_passes(name, seed, args.seconds)
        attempted, correct = 2 * ops, not failures
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(tracer.spans_json()))
        report.update(ops_per_pass=ops, spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(HERE.parent)))
    else:
        setup_s, probe_digest, setup_samples = measure_setup(name, seed, args.seconds)
        warm_up(name, seed)
        latencies, failures, slowest, busy, factors, digests = timed_loop(name, seed, args.seconds)
        if probe_digest != digests[0]:
            raise RuntimeError("set-up probes generated other inputs than this process")
        summary = summarize(latencies, len(WORKLOADS[name].schedule))
        attempted, correct, metrics = summary["attempted"], summary["correct"], summary["metrics"]
        if metrics:
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report.update(failed_ratio=summary["failed_ratio"], slowest=slowest,
                      unscaled_ops_per_s=len(latencies) / busy,
                      speed_factors={"min": min(factors), "median": statistics.median(factors),
                                     "max": max(factors)},
                      setup_probes=setup_samples)
    report.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  input_digests=digests)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over many seeds, or compare two such series.

    python3 perfbench/series.py run --seeds 1-10 [--workloads W ...] [--trace 1] [--out FILE]
    python3 perfbench/series.py compare BASE.jsonl NEW.jsonl

`run` starts one benchmark process per (workload, seed), one after the
other, prints every end-to-end metric by name and unit with failed_ratio,
then per workload and metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  Each
run is appended to FILE as one JSON line.

`compare` pairs the runs of two series by (workload, seed), refuses to
go on if a pair's input digests differ on any schedule round both runs
measured (the two libraries did not get the same inputs), and prints
each metric's median change, signed so that a positive change is a
worsening, against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
              "wall_s": time.monotonic() - start}
    if len(lines) >= 2:
        record["report"] = json.loads(lines[-2])["report"]
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def summarize(records):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    by_workload = {}
    for r in records:
        if "result" in r:
            by_workload.setdefault(r["workload"], []).append(r["result"]["metrics"])
    for workload, runs in by_workload.items():
        print(f"== {workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [run[name]["value"] for run in runs]
            line = f"  {name:<22} median {statistics.median(values):.6g} {runs[0][name]['unit']}"
            if len(values) >= 2:
                q1, q3, s = spread(values)
                line += f"  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {s:.3f}"
                if name in bounds:
                    line += f"  bound {bounds[name]} ({s / bounds[name]:.2f} of it)"
            print(line)


def cmd_run(args):
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    records = []
    for workload in workloads:
        for seed in seed_list(args.seeds):
            r = run_one(workload, seed, args.trace)
            records.append(r)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(r) + "\n")
            if "result" not in r:
                print(f"{workload} seed {seed}: exit {r['exit']}, no result\n{r['stderr']}")
                continue
            res = r["result"]
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: exit {r['exit']} in {r['wall_s']:.0f}s  failed_ratio="
                  f"{res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})"
                  f"  {shown}", flush=True)
    summarize(records)
    return 0 if all(r["exit"] == 0 for r in records) else 1


def load(path):
    return {(r["workload"], r["seed"]): r
            for r in map(json.loads, Path(path).read_text().splitlines()) if "result" in r}


def cmd_compare(args):
    base, new = load(args.base), load(args.new)
    pairs = sorted(set(base) & set(new))
    for key in pairs:
        a, b = base[key]["report"]["input_digests"], new[key]["report"]["input_digests"]
        common = min(len(a), len(b))
        if common == 0 or a[:common] != b[:common]:
            print(f"refusing to compare: input digests differ for {key}", file=sys.stderr)
            return 2
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        print(f"== {workload}: {len(keys)} paired seeds")
        for name, spec in metrics.items():
            a = [base[k]["result"]["metrics"][name]["value"] for k in keys]
            b = [new[k]["result"]["metrics"][name]["value"] for k in keys]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = "WORSE beyond bound" if worse > spec["bound"] else "within bound"
            print(f"  {name:<22} {ma:.6g} -> {mb:.6g} {spec['unit']}  worse by {worse:+.3f}"
                  f" (bound {spec['bound']}): {verdict}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

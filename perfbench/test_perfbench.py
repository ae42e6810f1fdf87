"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import tracer  # noqa: E402  (needs the library on the path)
from skewplus import Field, SkewMatrix, pf_eliminate  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_times_subtract_merged_child_intervals():
    spans = [
        ("root", 0, 100, -1, 0, 0),
        ("a", 10, 40, 0, 0, 0),
        ("a.inner", 15, 25, 1, 0, 0),
        ("b", 50, 70, 0, 0, 0),
        ("c", 60, 80, 0, 0, 0),      # overlaps b: covered once
        ("d", 95, 120, 0, 0, 0),     # runs past its parent: clipped
    ]
    # root: children cover [10,40] + [50,80] + [95,100] = 65 of 100
    assert tracer.self_times(spans) == [35, 20, 10, 20, 20, 25]


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert run.tail_percentile(samples, 90) == 90
    assert run.tail_percentile(list(reversed(samples)), 90) == 90
    with pytest.raises(ValueError):
        run.tail_percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        run.tail_percentile([], 50)
    assert run.tail_percentile(list(range(1, 110)), 90) == 99


@pytest.mark.parametrize("workload", ["kernel-3field", "oneshot-q"])
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first = run.digest(run.Inputs(workload, 7).round(1))
    assert run.digest(run.Inputs(workload, 7).round(1)) == first
    assert run.digest(run.Inputs(workload, 8).round(1)) != first
    assert run.digest(run.Inputs(workload, 7).round(0)) != first


def test_zero_op_run_is_a_failure():
    assert run.summarize([], 10)["correct"] is False
    assert run.summarize([], 10)["metrics"] == {}
    times = [(0.01, True)] * 120
    ok = run.summarize(times, 10)
    assert ok["correct"] is True
    assert ok["metrics"]["ops_per_s"] == pytest.approx(100)
    failed = run.summarize(times[:-1] + [(0.01, False)], 10)
    assert failed["correct"] is False
    assert failed["failed"] == 1
    assert failed["failed_ratio"] == 1 / 120


def test_tracer_counts_and_restores():
    import skewplus.unimod as unimod
    original = unimod.pf_eliminate
    q = Field.rationals()
    a = SkewMatrix.from_upper(q, 4, [1, 2, 3, 4, 5, 6])
    t = tracer.Tracer()
    t.install()
    try:
        assert unimod.pf_eliminate is not original
        assert pf_eliminate(a) == 1 * 6 - 2 * 5 + 3 * 4
        assert unimod.pf_eliminate(a) == 8
    finally:
        t.uninstall()
    assert unimod.pf_eliminate is original
    metrics = t.layer_metrics()
    # the package-level name was imported before install: only the
    # module attribute is wrapped there, the local binding is not
    assert metrics["pfaffian.eliminate_calls"] == 1
    assert metrics["pfaffian.eliminate_mean_size"] == 4
    assert metrics["fields.scalar_ops.q"] > 0


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    emitted = list(run.summarize([(0.01, True)] * 120, 10)["metrics"]) + ["setup_s",
                                                                             "peak_rss_mb"]
    assert sorted(e2e) == sorted(emitted)
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(layers) == sorted(list(tracer.Tracer().layer_metrics()) + ["trace.overhead_ratio"])
    for name, unit in {**e2e, **layers}.items():
        assert run.unit_of(name) == unit, name


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oneshot-q",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_compare_refuses_runs_with_other_inputs(tmp_path):
    import series

    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}

    def write(name, digests):
        record = {"workload": "oneshot-q", "seed": 1, "report": {"input_digests": digests},
                  "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}
        path = tmp_path / name
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    base = write("base.jsonl", ["aa", "bb", "cc"])
    # a faster library measures more rounds: the common prefix must agree
    assert series.main(["compare", base, write("same.jsonl", ["aa", "bb"])]) == 0
    assert series.main(["compare", base, write("longer.jsonl", ["aa", "bb", "cc", "dd"])]) == 0
    assert series.main(["compare", base, write("first.jsonl", ["xx", "bb"])]) == 2
    assert series.main(["compare", base, write("later.jsonl", ["aa", "bb", "xx"])]) == 2

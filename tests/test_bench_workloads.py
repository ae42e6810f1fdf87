"""One schedule round of each benchmark workload (perfbench/workloads.py),
on the inputs and with the exact checks of the benchmark's seed-1 run.

Every operation builds its library objects from raw inputs through the
public constructors and checks its output exactly, so a change that
breaks what the benchmark reads of the library fails here.
"""

import importlib.util
import random
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_schedule_round_passes_its_checks(name):
    # the seeds of perfbench/run.py's Inputs.get and run_op
    workload = workloads.WORKLOADS[name]
    for i, cls in enumerate(workload.schedule):
        raw = workload.make(cls, random.Random(f"{SEED}:{name}:input:{i}"))
        workload.op(cls, raw, random.Random(f"{SEED}:{name}:{i}"))

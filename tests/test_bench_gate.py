"""One pass of every benchmark workload passes the benchmark's own output gate.

At the default seed each operation's record must equal ``bench/reference.json``;
at seed 7 each is checked by the workload's independent checks.  The bench
modules are imported from ``bench/`` unchanged, as ``bench/test_bench.py`` does.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7], ids=["default-seed", "seed-7"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_passes_the_gate(name, seed, reference):
    workload = workloads.WORKLOADS[name]
    outcomes = workload.run_pass(workload.inputs(seed))
    assert outcomes
    assert workloads.outcome_failures(workload, outcomes, seed, reference[name]) == []

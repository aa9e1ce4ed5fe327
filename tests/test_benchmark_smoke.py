"""A short run of every benchmark workload ends well.

perfbench/run.py exits 0 even when its output checks fail, so each run's
last line, a JSON object, is read: the outputs must be correct, no
operation may fail, and the metric names must be exactly the end-to-end
metrics that BENCHMARK.json declares.  Three seconds give train-prop4
about a hundred training steps, past the 40 its loss check needs.  The
results go to the gitignored perfbench/out/.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_a_short_benchmark_run_is_correct_and_complete(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}

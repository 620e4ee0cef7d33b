"""The benchmark's result line, and what it loads from the tests.

perfbench is read here, never edited: these tests run it as its users
do, from the repository root, and check the line it ends with.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_reference_loads_without_numpy():
    # perfbench loads tests/reference.py by file path into the
    # semigroup_queries child, whose peak RSS the benchmark reports
    script = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_reference", "tests/reference.py")
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print("numpy" in sys.modules)
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize(
    "workload, trace",
    # cli_sweep untraced is the only run that reads witness_tails
    [("cli_sweep", 1), ("semigroup_queries", 1), ("cli_sweep", 0)],
)
def test_result_line_is_strict_json_with_finite_metrics(workload, trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)

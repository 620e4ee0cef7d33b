"""The per-degree step of tools/ladder.py, run in process."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degree_reports_every_section_memory_and_verdict():
    result = _ladder().degree(6)
    assert list(result) == ["n", "seconds", "total_s", "vm_hwm_mb", "verdict"]
    assert result["n"] == 6 and result["verdict"] == "PASS"
    steps = ["context", "build_W", "build_T", "field", "design", "matrix", "nucleus", "groupoid", "bound"]
    assert list(result["seconds"]) == steps
    assert all(s >= 0 for s in result["seconds"].values())
    assert result["total_s"] >= sum(result["seconds"].values()) - 1e-3
    assert result["vm_hwm_mb"] is None or result["vm_hwm_mb"] > 0


def test_degree_restores_the_certify_step_names():
    import multispinal.certify as certify_module

    ladder = _ladder()
    before = {name: getattr(certify_module, name) for name in ladder.STEPS.values()}
    assert len(before) == 9
    ladder.degree(6)
    assert all(getattr(certify_module, name) is fn for name, fn in before.items())


def test_query_pass_reports_loop_time_and_failures(monkeypatch):
    # the pass reads perfbench/ and tests/ relative to the checkout's root
    monkeypatch.chdir(ROOT)
    result = _ladder().query_pass(count=20, repeats=2)
    assert list(result) == ["n", "seed", "requests", "best_loop_s", "failed"]
    assert (result["n"], result["requests"], result["failed"]) == (7, 20, 0)
    assert result["best_loop_s"] > 0


def test_context_reports_the_table_build_alone():
    result = _ladder().context(8)
    assert list(result) == ["n", "seconds", "vm_hwm_mb"]
    assert result["n"] == 8 and result["seconds"] >= 0
    assert result["vm_hwm_mb"] is None or result["vm_hwm_mb"] > 0


def test_contexts_run_one_child_per_degree_up_to_the_cap(monkeypatch):
    # the children are stood in for: each run reports the degree it was given
    ladder = _ladder()

    def run(argv, root, timeout):
        n = int(argv[argv.index("--context") + 1])
        return 0.5, subprocess.CompletedProcess(argv, 0, stdout=json.dumps({"n": n}) + "\n", stderr="")

    monkeypatch.setattr(ladder, "_timed_run", run)
    costs = ladder.contexts(ROOT, ladder.CONTEXT_N_MAX - 2)
    assert costs == [{"n": n, "wall_s": 0.5} for n in range(ladder.CONTEXT_N_MAX - 2, ladder.CONTEXT_N_MAX + 1)]
    assert ladder.contexts(ROOT, ladder.CONTEXT_N_MAX + 1) == []


def test_ladder_runs_each_degree_repeats_times_and_reports_the_medians(monkeypatch):
    # the children are stood in for: the matrix step reads 3, 1 and 2 s
    # over a degree's runs, and the third degree fails on its second run
    ladder = _ladder()
    first = ladder.N_MIN
    calls = []

    def run(argv, root, timeout):
        n = int(argv[argv.index("--child") + 1])
        calls.append(n)
        r = calls.count(n) - 1
        seconds = dict.fromkeys(ladder.STEPS, 0.25) | {"matrix": (3.0, 1.0, 2.0)[r]}
        verdict = "FAIL" if (n, r) == (first + 2, 1) else "PASS"
        line = {"n": n, "seconds": seconds, "total_s": 4.0 + r, "vm_hwm_mb": 50.0, "verdict": verdict}
        return (0.5, 0.9, 0.7)[r], subprocess.CompletedProcess(argv, 0, stdout=json.dumps(line) + "\n", stderr="")

    monkeypatch.setattr(ladder, "_timed_run", run)
    rungs = ladder.ladder(ROOT)
    assert ladder.REPEATS == 3
    assert calls == [first] * 3 + [first + 1] * 3 + [first + 2] * 2
    assert [(r["n"], len(r["runs"]), r["verdict"]) for r in rungs] == [
        (first, 3, "PASS"), (first + 1, 3, "PASS"), (first + 2, 2, "FAIL"),
    ]
    assert [run["wall_s"] for run in rungs[0]["runs"]] == [0.5, 0.9, 0.7]
    median = rungs[0]["median"]
    assert median["seconds"] == dict.fromkeys(ladder.STEPS, 0.25) | {"matrix": 2.0}
    assert (median["total_s"], median["wall_s"], median["vm_hwm_mb"]) == (5.0, 0.7, 50.0)
    assert rungs[2]["median"]["seconds"]["matrix"] == 2.0  # the median of 3 and 1


def test_context_child_prints_its_cost():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ladder.py"), "--context", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["n"] == 5

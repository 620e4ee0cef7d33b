"""The per-degree step of tools/ladder.py, run in process."""

import importlib.util
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


def test_query_pass_reports_loop_time_and_memo_sizes(monkeypatch):
    # the pass reads perfbench/ and tests/ relative to the checkout's root
    monkeypatch.chdir(ROOT)
    result = _ladder().query_pass(count=20, repeats=2)
    assert list(result) == ["n", "seed", "requests", "best_loop_s", "eq_memo", "failed"]
    assert (result["n"], result["requests"], result["failed"]) == (7, 20, 0)
    assert result["best_loop_s"] > 0
    assert result["eq_memo"] >= 0

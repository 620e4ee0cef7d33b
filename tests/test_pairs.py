"""tools/pairs.py with the benchmark runs stood in for."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(failed=0, **values):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_pairs_alternate_the_side_that_runs_first_and_share_the_seed(monkeypatch, tmp_path):
    pairs = _pairs()
    calls = []

    def run(root, workload, seed):
        calls.append((root.name, workload, seed))
        return _line(wall_s=1.0)

    monkeypatch.setattr(pairs, "_run", run)
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    runs = pairs.run_pairs(roots, ["w1", "w2"])
    assert pairs.PAIRS == 10 and pairs.SECONDS == 15
    want = []
    for i in range(pairs.PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        want += [(side, w, i + 1) for w in ("w1", "w2") for side in order]
    assert calls == want
    assert [(p["seed"], p["first"]) for p in runs["w1"]] == [
        (i + 1, "parent" if i % 2 == 0 else "change") for i in range(pairs.PAIRS)
    ]


def test_summary_reads_medians_wins_and_the_bound():
    pairs = _pairs()
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "queries_per_s", "better": "higher", "bound": 0.25},
        {"name": "query_p99_ms", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    runs = [
        {"parent": _line(wall_s=p, queries_per_s=100 * p, query_p99_ms=p, setup_s=None),
         "change": _line(failed=int(p == 5.0), wall_s=1.3 * p, queries_per_s=80 * p, query_p99_ms=p - 0.5,
                         setup_s=1.0)}
        for p in parent
    ]
    summary = pairs.summarize(runs, metrics)
    wall, qps, p99 = (summary["metrics"][name] for name in ("wall_s", "queries_per_s", "query_p99_ms"))
    # medians 3.0 and 3.9: 30 % worse than the parent, over the 25 % bound
    assert (wall["parent_median"], wall["change_median"]) == (3.0, pytest.approx(3.9))
    assert wall["worse_by"] == pytest.approx(0.3) and wall["worse_than_bound"] is True
    assert wall["change_wins"] == 0 and wall["pairs"] == 5
    assert wall["parent_iqr"] == 4.5 - 1.5  # exclusive quartiles of 1..5
    # every pair's change / parent is 1.3, however wide the parent spreads
    assert wall["ratio_quartiles"] == [pytest.approx(1.3)] * 3
    # higher is better: 20 % fewer queries is within the bound
    assert qps["worse_by"] == pytest.approx(0.2) and qps["worse_than_bound"] is False
    assert qps["change_wins"] == 0
    # lower is better and every change run is lower: it wins each pair
    assert p99["change_wins"] == 5 and p99["worse_by"] < 0 and p99["worse_than_bound"] is False
    # ratios 0.5, 0.75, 5/6, 0.875, 0.9: exclusive quartiles
    assert p99["ratio_quartiles"] == [pytest.approx(0.625), pytest.approx(5 / 6), pytest.approx(0.8875)]
    # a metric one side does not report is left out
    assert "setup_s" not in summary["metrics"]
    assert summary["failed"] == {"parent": [0] * 5, "change": [0, 0, 0, 0, 1]}


def test_main_writes_the_report(monkeypatch, tmp_path, capsys):
    pairs = _pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(pairs, "_run", lambda root, workload, seed: _line(wall_s=2.0 if root.name == "parent" else 1.0))
    out = tmp_path / "pairs.json"
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["pairs"], doc["seconds"]) == (10, 15)
    summary = doc["workloads"]["w"]["metrics"]["wall_s"]
    assert summary["change_wins"] == 10 and summary["worse_than_bound"] is False
    assert len(doc["workloads"]["w"]["runs"]) == 10
    assert "wall_s" in capsys.readouterr().out


def test_per_pair_ratio_resolves_what_host_drift_hides(monkeypatch, tmp_path, capsys):
    # the host slows by half from pair 7 on, on both sides alike: the
    # parent's IQR is half its median, but every pair reads 0.98
    pairs = _pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))

    def run(root, workload, seed):
        host = 1.0 if seed <= 6 else 1.5
        return _line(wall_s=host * (0.98 if root.name == "change" else 1.0))

    monkeypatch.setattr(pairs, "_run", run)
    out = tmp_path / "pairs.json"
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"]["w"]["metrics"]["wall_s"]
    assert summary["parent_iqr"] == pytest.approx(0.5) and summary["parent_median"] == 1.0
    assert summary["ratio_quartiles"] == [pytest.approx(0.98)] * 3
    assert summary["change_wins"] == 10 and summary["worse_than_bound"] is False
    assert "ratio 0.980 [0.980, 0.980]" in capsys.readouterr().out

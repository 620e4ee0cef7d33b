"""Alternating pairs of benchmark runs, a parent checkout against a change.

    python3 tools/pairs.py --parent DIR --change DIR --out FILE

Each of PAIRS pairs runs `perfbench/run.py --workload W --seed S
--seconds SECONDS --trace 0` once from each checkout, for every workload
of BENCHMARK.json, with the pair's number as the seed S of both sides.
The two sides of a workload run back to back, the parent first in even
pairs and the change first in odd ones, so a drift in the host's speed
falls on both alike.  SECONDS is not a flag: at 8 s the p99 latency of
runs of the same code on a shared 2-CPU host spreads wider than its
25 % bound, at 15 s it does not.

For each workload and each end-to-end metric of the change's
BENCHMARK.json the report gives the median of each side, the
interquartile range of the parent's runs, how many pairs the change
wins, and whether the change's median is worse than the parent's by
more than the metric's bound, as a fraction of the parent's median.  It
gives the median and quartiles of the per-pair ratio change / parent
too: a drift in the host's speed widens the parent's own spread, but
falls on both runs of a pair alike and leaves their ratio.  It also
lists the failed operations of every run.  The report is written
to FILE as JSON and printed as a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 15
TIMEOUT_S = 600  # one run: SECONDS of passes plus its set-up runs
SIDES = ("parent", "change")


def _run(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run from the checkout at root: its result line,
    {"correct", "attempted", "failed", "metrics"}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def run_pairs(roots: dict[str, Path], workloads: list[str]) -> dict[str, list[dict]]:
    """PAIRS pairs of runs per workload: {workload: [{"seed", "first",
    "parent", "change"}, ...]}, each side its run's result line."""
    runs = {w: [] for w in workloads}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"seed": i + 1, "first": order[0]}
            for side in order:
                pair[side] = _run(roots[side], w, i + 1)
            runs[w].append(pair)
    return runs


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is than the parent, as a fraction of the
    parent: negative when it is better."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of values."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric, over the pairs where both sides report a
    number: both medians, the parent's interquartile range, the change's
    wins, the quartiles of the per-pair ratio change / parent and the
    bound verdict; and every run's failed count."""
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        values = [(p["parent"]["metrics"].get(name, {}).get("value"), p["change"]["metrics"].get(name, {}).get("value"))
                  for p in pairs]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if not values:
            continue
        parent = [a for a, _ in values]
        pm, cm = statistics.median(parent), statistics.median(b for _, b in values)
        q1, _, q3 = _quartiles(parent)
        r1, rm, r3 = _quartiles([b / a for a, b in values])
        worse = worse_by(pm, cm, better)
        out[name] = {
            "parent_median": pm,
            "change_median": cm,
            "parent_iqr": q3 - q1,
            "change_wins": sum(worse_by(a, b, better) < 0 for a, b in values),
            "pairs": len(values),
            "ratio_quartiles": [r1, rm, r3],
            "worse_by": worse,
            "bound": m["bound"],
            "worse_than_bound": worse > m["bound"],
        }
    failed = {side: [p[side]["failed"] for p in pairs] for side in SIDES}
    return {"metrics": out, "failed": failed}


def _table(doc: dict) -> str:
    lines = []
    for w, r in doc["workloads"].items():
        lines.append(f"{w}  failed: parent {sum(r['failed']['parent'])}, change {sum(r['failed']['change'])}")
        for name, s in r["metrics"].items():
            flag = "WORSE THAN BOUND" if s["worse_than_bound"] else ""
            r1, rm, r3 = s["ratio_quartiles"]
            lines.append(f"    {name:<16} parent {s['parent_median']:>12.6g} (IQR {s['parent_iqr']:.3g})  "
                         f"change {s['change_median']:>12.6g}  wins {s['change_wins']}/{s['pairs']}  "
                         f"ratio {rm:.3f} [{r1:.3f}, {r3:.3f}]  "
                         f"worse by {s['worse_by']:+.1%} of {s['bound']:.0%}  {flag}".rstrip())
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file the report is written to")
    args = parser.parse_args(argv)
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    runs = run_pairs(roots, [w["name"] for w in bench["workloads"]])
    doc = {"pairs": PAIRS, "seconds": SECONDS, **{side: str(root) for side, root in roots.items()},
           "workloads": {w: {"runs": pairs, **summarize(pairs, bench["end_to_end"])} for w, pairs in runs.items()}}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(_table(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

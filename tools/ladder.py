"""Degree ladder: per-section seconds and peak memory of one certificate
per degree, n = 6 upwards, each in a fresh process.

    python3 tools/ladder.py --out BENCH.json [--root DIR] [--label NAME]

DIR is the checkout whose source is measured (default: this one); its
src/ is put on PYTHONPATH of every child.  A child runs that checkout's
multispinal.certify.certify(n) with its nine steps (STEPS) timed, and
prints their seconds, its own peak resident memory (VmHWM) and the
verdict.  It limits its address space to 1 GiB, so a degree that needs
more fails with a MemoryError instead of taking the machine's memory.
The ladder stops at the first degree whose child takes longer than
BUDGET_S (it is killed there) or does not PASS; past the largest degree
a field context supports, the child fails with a ValueError.  From the
degree where it stopped (the next one, if that still passed) up to
CONTEXT_N_MAX, a fresh child per degree times field_context(n) alone and
reports its peak memory, so the field's table cost is tracked past the
certificate's reach.

The record also holds the query path: one seeded pass of the
benchmark's semigroup_queries loop (perfbench/workloads.run_queries,
imported from DIR and left as it is), run QUERY_REPEATS times in one
child on a fresh group each time, with the best loop time; the wall
time of `certify --all --n-min 2 --n-max 8` and of the tier-1 suite;
the line count of src/ from perfbench/run.py's src_lines; the load
average and the commit.  It is appended to the "runs" list of --out, so
one file can hold a run at a parent commit and one at its change, taken
back to back on one host.  The ladder is a trajectory, not a gate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ADDRESS_SPACE_LIMIT = 1 << 30
BUDGET_S = 120.0
CONTEXT_N_MAX = 20  # gf2n.MAX_CONTEXT_DEGREE
N_MIN = 6
QUERY_REPEATS = 5
QUERY_SEED = 1  # the benchmark seed whose pass is timed
SOURCE_DATE_EPOCH = "1700000000"
STEPS = {  # the key each step is timed under -> its name in multispinal.certify
    "context": "field_context", "build_W": "build_W", "build_T": "build_T",
    "field": "field_section", "design": "design_section", "matrix": "matrix_section",
    "nucleus": "nucleus_section", "groupoid": "groupoid_section", "bound": "bound_section",
}


def _vm_hwm_mb() -> float | None:
    """This process's peak resident set, from /proc/self/status."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def degree(n: int) -> dict:
    """Certify degree n in this process with multispinal.certify.certify
    and return the seconds of each step, the peak memory and the
    document's verdict.

    Each name of STEPS in the certify module's namespace is wrapped with a
    timer for the length of the call and restored after it, so the ladder
    times certify's own wiring, whatever the steps' signatures are."""
    import importlib

    module = importlib.import_module("multispinal.certify")
    originals = {key: getattr(module, name) for key, name in STEPS.items()}
    seconds = dict.fromkeys(STEPS, 0.0)

    def timed(key, fn):
        def step(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t

        return step

    start = time.perf_counter()
    try:
        for key, fn in originals.items():
            setattr(module, STEPS[key], timed(key, fn))
        doc = module.certify(n)
    finally:
        for key, fn in originals.items():
            setattr(module, STEPS[key], fn)
    return {
        "n": n,
        "seconds": {key: round(s, 4) for key, s in seconds.items()},
        "total_s": round(time.perf_counter() - start, 4),
        "vm_hwm_mb": _vm_hwm_mb(),
        "verdict": doc["verdict"],
    }


def context(n: int) -> dict:
    """Build the degree-n field context alone, in this process, and
    return its seconds and the peak memory."""
    from multispinal.gf2n import field_context

    t = time.perf_counter()
    field_context(n)
    return {"n": n, "seconds": round(time.perf_counter() - t, 4), "vm_hwm_mb": _vm_hwm_mb()}


def query_pass(count: int | None = None, repeats: int = QUERY_REPEATS) -> dict:
    """The seed-QUERY_SEED semigroup_queries pass, count requests (the
    pass's own count by default), repeated in this process; run from the
    root of the checkout, whose perfbench/workloads.py it loads.  Returns
    the best loop time and the pass's failures."""
    import importlib.util

    from multispinal.gf2n import field_context
    from multispinal.selfsim import MultispinalGroup

    spec = importlib.util.spec_from_file_location("ladder_workloads", Path("perfbench") / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    queries = workloads.WORKLOADS["semigroup_queries"].pass_spec(QUERY_SEED)["queries"]
    count = queries["count"] if count is None else count
    ctx = field_context(workloads.QUERY_N)
    loops = []
    for _ in range(repeats):
        group = MultispinalGroup(ctx)
        result = workloads.run_queries(group, ctx, queries["seed"], count, time.perf_counter)
        loops.append(result["loop_s"])
    return {
        "n": workloads.QUERY_N,
        "seed": QUERY_SEED,
        "requests": count,
        "best_loop_s": round(min(loops), 4),
        "failed": len(result["errors"]),
    }


def _child(n: int, step=degree) -> int:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    try:
        result = step(n)
    except MemoryError:
        result = {"n": n, "error": "MemoryError", "vm_hwm_mb": _vm_hwm_mb(), "verdict": None}
    print(json.dumps(result))
    return 0 if result.get("verdict", "PASS") == "PASS" else 1


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    return env


def _timed_run(argv: list[str], root: Path, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True, text=True, timeout=timeout)
    return round(time.perf_counter() - t, 3), proc


def _spawn(flag: str, n: int, root: Path) -> dict:
    """Run this script as a child with flag n and return its result line,
    with its wall time, or the error that stopped it."""
    argv = [sys.executable, str(Path(__file__).resolve()), flag, str(n)]
    try:
        wall, proc = _timed_run(argv, root, BUDGET_S)
    except subprocess.TimeoutExpired:
        return {"n": n, "error": f"over the {BUDGET_S:g} s budget", "verdict": None}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"n": n, "error": proc.stderr[-500:], "verdict": None}
    result["wall_s"] = wall
    print(json.dumps(result), file=sys.stderr)
    return result


def ladder(root: Path) -> list[dict]:
    rungs = []
    for n in itertools.count(N_MIN):
        rungs.append(_spawn("--child", n, root))
        if rungs[-1]["verdict"] != "PASS" or rungs[-1]["wall_s"] > BUDGET_S:
            break
    return rungs


def contexts(root: Path, first: int) -> list[dict]:
    """context(n) for n = first .. CONTEXT_N_MAX, one fresh child each."""
    return [_spawn("--context", n, root) for n in range(first, CONTEXT_N_MAX + 1)]


def record(root: Path, label: str) -> dict:
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"], cwd=root, capture_output=True, text=True
    ).stdout.strip()
    load = os.getloadavg()
    sweep_s, sweep = _timed_run(
        [sys.executable, "-m", "multispinal", "certify", "--all", "--n-min", "2", "--n-max", "8"], root, 600
    )
    tier1_s, tier1 = _timed_run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        root,
        1800,
    )
    lines_script = "import json, sys; sys.path.insert(0, 'perfbench'); import run; print(json.dumps(run.src_lines()))"
    src = json.loads(subprocess.run([sys.executable, "-c", lines_script], cwd=root, capture_output=True,
                                    text=True, check=True).stdout)
    _, proc = _timed_run([sys.executable, str(Path(__file__).resolve()), "--queries"], root, 600)
    lines = proc.stdout.strip().splitlines()
    queries = json.loads(lines[-1]) if lines else {"error": proc.stderr[-500:]}
    rungs = ladder(root)
    stop = rungs[-1]
    return {
        "label": label,
        "commit": commit,
        "python": sys.version.split()[0],
        "loadavg_before": [round(x, 2) for x in load],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "certify_all_2_8": {"wall_s": sweep_s, "exit": sweep.returncode},
        "tier1": {"wall_s": tier1_s, "exit": tier1.returncode, "summary": tier1.stdout.strip().splitlines()[-1:]},
        "src_lines": src,
        "queries": queries,
        "budget_s": BUDGET_S,
        "degrees": rungs,
        "contexts": contexts(root, stop["n"] + (stop["verdict"] == "PASS")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--context", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--queries", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="JSON file whose runs list the record is appended to")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--label", default="run")
    args = parser.parse_args(argv)
    if args.child is not None:
        return _child(args.child)
    if args.context is not None:
        return _child(args.context, context)
    if args.queries:
        print(json.dumps(query_pass()))
        return 0
    if not args.out:
        parser.error("--out is required")
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"runs": []}
    doc["runs"].append(record(Path(args.root).resolve(), args.label))
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

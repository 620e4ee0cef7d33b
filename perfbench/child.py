"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/child.py setup TARGETS_JSON
        import multispinal and build every field context and group of
        TARGETS, a list of [n, polynomial mask or null, build a group];
        prints {"setup_s": ...}
    python3 perfbench/child.py queries SEED COUNT
        one semigroup_queries pass; prints latencies and failures
    python3 perfbench/child.py inproc PASS_JSON TRACE
        one pass run inside this interpreter (CLI argv through
        multispinal.cli.main), with the per-layer tracer when TRACE is 1;
        prints the pass wall time, the gate of each document or query
        and the per-layer metrics

Run from the repository root with src on PYTHONPATH; the result is the
last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from workloads import QUERY_N, check_cli, digest, run_queries


def setup(targets: list) -> dict:
    t0 = time.perf_counter()
    import multispinal

    for n, poly, with_group in targets:
        ctx = multispinal.field_context(n, poly)
        if with_group:
            multispinal.MultispinalGroup(ctx)
    return {"setup_s": time.perf_counter() - t0}


def queries(seed: int, count: int) -> dict:
    from multispinal import MultispinalGroup, field_context

    ctx = field_context(QUERY_N)
    group = MultispinalGroup(ctx)
    return run_queries(group, ctx, seed, count, time.perf_counter)


def inproc(spec: dict, trace: bool) -> dict:
    import multispinal  # noqa: F401  (imported before the clock, as in a CLI process)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    if "queries" in spec:
        from multispinal import MultispinalGroup, field_context

        ctx = field_context(QUERY_N)
        result = run_queries(MultispinalGroup(ctx), ctx, spec["queries"]["seed"], spec["queries"]["count"], time.perf_counter)
        doc = {"wall_s": result["loop_s"], "attempted": result["attempted"], "errors": result["errors"]}
    else:
        from multispinal import cli

        outputs = []
        for argv in spec["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            outputs.append((argv, code, buf.getvalue().encode()))
        wall = time.perf_counter() - t0
        doc = {"wall_s": wall, "documents": [(*check_cli(argv, code, out), digest(out)) for argv, code, out in outputs]}
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.metrics()
    return doc


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        doc = setup(json.loads(argv[1]))
    elif mode == "queries":
        doc = queries(int(argv[1]), int(argv[2]))
    elif mode == "inproc":
        doc = inproc(json.loads(argv[1]), argv[2] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer tracing of multispinal from outside the package.

Wraps public functions at the boundary of each module of src/multispinal
and records, per wrapped name, its call count, inclusive time and self
time (inclusive time minus the time of wrapped callees).  Spans stay in
memory; `Tracer.metrics()` turns them into the per-layer metrics.

The wrapping survives refactors of the package:

  * a function is replaced in every multispinal module namespace that
    binds it, so re-exports (`rank_over_Q` in exact_linalg, certify and
    groupoid) all count;
  * the certify module is reached through importlib, which works whether
    or not `multispinal.certify` is rebound to the function;
  * a name the package no longer has reports null instead of failing.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time

FUNCTIONS = {
    "gf2n": ("field_context",),
    "hyperplanes": ("build_hyperplanes", "verify_design"),
    "exact_linalg": ("build_W", "build_T", "check_R_conditions", "verify_right_inverse", "rank_over_Q", "rank_mod_p"),
    "groupoid": (
        "germ_equal", "region_pattern", "intersect_witness", "sg_multiply", "sg_equal",
        "sample_bound_ratios", "singular_system_certificate",
    ),
    "certify": (
        "certify", "field_section", "design_section", "matrix_section",
        "nucleus_section", "groupoid_section", "bound_section",
    ),
}
GROUP_METHODS = ("_step", "equal", "in_nucleus", "verify_nucleus")  # of selfsim.MultispinalGroup
SECTIONS = ("field", "design", "matrix", "nucleus", "groupoid", "bound")
DEGREES = (2, 3, 4, 5)  # the degrees cli_sweep certifies
MODULES = ("gf2n", "hyperplanes", "exact_linalg", "selfsim", "groupoid", "certify", "cli")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in FUNCTIONS["exact_linalg"][2:] + FUNCTIONS["exact_linalg"][:2]:
        out += [(f"exact_linalg.{name}.calls", "count"), (f"exact_linalg.{name}.self_s", "s")]
    out += [
        ("groupoid.germ_equal.calls", "count"), ("groupoid.germ_equal.self_s", "s"),
        ("groupoid.region_pattern.calls", "count"), ("groupoid.region_pattern.self_s", "s"),
        ("groupoid.witness_tails_tried", "count"), ("groupoid.witness_hit_ratio", "ratio"),
        ("groupoid.sg_multiply.calls", "count"), ("groupoid.sg_equal.calls", "count"),
        ("groupoid.intersect_witness.calls", "count"),
        ("groupoid.sample_bound_ratios.self_s", "s"), ("groupoid.singular_system_certificate.self_s", "s"),
        ("selfsim._step.calls", "count"), ("selfsim._step.self_s", "s"),
        ("selfsim.equal.calls", "count"), ("selfsim.equal.self_s", "s"),
        ("selfsim.in_nucleus.calls", "count"), ("selfsim.verify_nucleus.self_s", "s"),
        ("selfsim.memo_entries", "count"),
        ("hyperplanes.build_hyperplanes.calls", "count"), ("hyperplanes.build_hyperplanes.self_s", "s"),
        ("hyperplanes.verify_design.self_s", "s"),
        ("gf2n.trace_table.self_s", "s"),
        ("gf2n.field_context.calls", "count"), ("gf2n.field_context.self_s", "s"),
    ]
    out += [(f"certify.{s}_s", "s") for s in SECTIONS]
    out += [(f"certify.degree_s.n{n}", "s") for n in DEGREES]
    out += [
        ("cli.self_s", "s"),
        ("python.gc_s", "s"), ("python.gc_collections", "count"),
        ("trace.overhead_s", "s"), ("trace.untraced_wall_s", "s"),
    ]
    out += [(f"src.lines.{m}", "lines") for m in MODULES] + [("src.lines.total", "lines")]
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "multispinal" or name.startswith("multispinal."))]


def _find(module: str, name: str):
    """The object the package calls `name`: first in its home module,
    then anywhere else in the package; None when it no longer exists."""
    try:
        home = importlib.import_module(f"multispinal.{module}")
    except ImportError:
        home = None
    if home is not None and hasattr(home, name) and not inspect.ismodule(getattr(home, name)):
        return getattr(home, name)
    for mod in _package_modules():
        value = vars(mod).get(name)
        if value is not None and not inspect.ismodule(value):
            return value
    return None


def _arg(sig, args, kwargs, name):
    try:
        return sig.bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, inclusive_s]
        self._stack = [0.0]
        self.groups = []
        self.tails_tried = 0
        self.regions_found = 0
        self.degree_s: dict[int, float] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn, on_return=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack[-2] += dt
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
            if on_return is not None:
                on_return(args, kwargs, result, dt)
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        hooks = {"region_pattern": self._on_region, "certify": self._on_certify}
        for module, names in FUNCTIONS.items():
            for name in names:
                fn = _find(module, name)
                if not callable(fn):
                    continue
                hook = hooks.get(name)
                if hook is not None:
                    hook = functools.partial(hook, inspect.signature(fn))
                self._rebind(fn, self._wrap(f"{module}.{name}", fn, hook))
        try:
            cli = importlib.import_module("multispinal.cli")
        except ImportError:
            cli = None
        for name, fn in list(vars(cli).items()) if cli else ():
            if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
                self._rebind(fn, self._wrap(f"cli.{name}", fn))
        group = _find("selfsim", "MultispinalGroup")
        if inspect.isclass(group):
            for name in GROUP_METHODS:
                fn = group.__dict__.get(name)
                if inspect.isfunction(fn):
                    setattr(group, name, self._wrap(f"selfsim.{name}", fn))
            init, groups = group.__init__, self.groups

            def recording_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                groups.append(obj)

            group.__init__ = recording_init
        ctx = _find("gf2n", "FieldContext")
        prop = vars(ctx).get("trace_table") if inspect.isclass(ctx) else None
        if isinstance(prop, functools.cached_property):
            new = functools.cached_property(self._wrap("gf2n.trace_table", prop.func))
            new.__set_name__(ctx, "trace_table")
            ctx.trace_table = new
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- hooks ----------------------------------------------------------------

    def _on_region(self, sig, args, kwargs, result, dt):
        # the search tries tails 1^s 0 for s = m, m+1, ... and returns the
        # first that separates the region: s - m + 1 tails for witness 1^s 0
        m = _arg(sig, args, kwargs, "m")
        witness = getattr(result, "witness", None)
        if isinstance(m, int) and isinstance(witness, str):
            self.tails_tried += len(witness) - m
            self.regions_found += 1

    def _on_certify(self, sig, args, kwargs, result, dt):
        n = _arg(sig, args, kwargs, "n")
        if isinstance(n, int):
            self.degree_s[n] = self.degree_s.get(n, 0.0) + dt

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_collections += 1

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; null for names the package lacks.
        The trace.* and src.* metrics are filled in by the caller."""
        stats = self.stats
        out = {}

        def field(key, i):
            return stats[key][i] if key in stats else None

        for module, names in [*FUNCTIONS.items(), ("selfsim", GROUP_METHODS), ("gf2n", ("trace_table",))]:
            for name in names:
                out[f"{module}.{name}.calls"] = field(f"{module}.{name}", 0)
                out[f"{module}.{name}.self_s"] = field(f"{module}.{name}", 1)
        has_regions = "groupoid.region_pattern" in stats
        out["groupoid.witness_tails_tried"] = self.tails_tried if has_regions else None
        out["groupoid.witness_hit_ratio"] = (
            (self.regions_found / self.tails_tried if self.tails_tried else 0.0) if has_regions else None
        )
        memos = [getattr(g, "_eq_memo", None) for g in self.groups]
        out["selfsim.memo_entries"] = None if None in memos else sum(len(m) for m in memos)
        for s in SECTIONS:
            out[f"certify.{s}_s"] = field(f"certify.{s}_section", 2)
        has_certify = "certify.certify" in stats
        for n in DEGREES:
            out[f"certify.degree_s.n{n}"] = self.degree_s.get(n, 0.0) if has_certify else None
        cli_keys = [k for k in stats if k.startswith("cli.")]
        out["cli.self_s"] = sum(stats[k][1] for k in cli_keys) if cli_keys else None
        out["python.gc_s"] = self.gc_s
        out["python.gc_collections"] = self.gc_collections
        return out

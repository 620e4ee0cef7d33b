"""Workload definitions shared by the benchmark and its child processes.

Every workload is a closed loop with one client on one thread: the next
pass starts only after the previous one has finished.  A pass is a fixed,
seeded amount of work run in fresh processes, so its wall time and peak
memory do not depend on how many passes came before it, and a run repeats
the same pass.

    cli_sweep          `multispinal certify --all --n-min 2 --n-max 5`, every
                       section on its full path (Bareiss twice, odd-prime
                       ranks, the full 2k-region germ sweep), then
                       `multispinal field --n N` for N = 12..14, where gf2n
                       tables and JSON emission dominate
    semigroup_queries  library loop at n = 7 against one long-lived
                       MultispinalGroup per pass: requests of one C10 axiom
                       bundle, one intersect_witness and one germ_equal

The checks here are the correctness gate: an operation (a certificate, a
query or a field document) that fails one counts as failed, not as a timed
success.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

SOURCE_DATE_EPOCH = "1700000000"

SWEEP_DEGREES = (2, 5)
QUERY_N = 7
REQUESTS_PER_PASS = 2000
FIELD_DEGREES = tuple(range(12, 15))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


@dataclass(frozen=True)
class Workload:
    name: str

    def pass_spec(self, seed: int) -> dict:
        """The pass a run repeats: CLI argv lists, or a query seed and count."""
        rng = rng_for(self.name, seed)
        if self.name == "cli_sweep":
            lo, hi = SWEEP_DEGREES
            polys = field_polys(seed)
            return {"argv": [
                ["certify", "--all", "--n-min", str(lo), "--n-max", str(hi), "--seed", str(rng.randrange(10**6))],
                *(["field", "--n", str(n), "--poly", hex(polys[n])] for n in FIELD_DEGREES),
            ]}
        if self.name == "semigroup_queries":
            return {"queries": {"seed": rng.randrange(2**32), "count": REQUESTS_PER_PASS}}
        raise KeyError(self.name)

    def setup_targets(self, seed: int) -> list[tuple[int, int | None, bool]]:
        """(n, polynomial mask or None, build a MultispinalGroup) for every
        field context the workload uses."""
        if self.name == "semigroup_queries":
            return [(QUERY_N, None, True)]
        lo, hi = SWEEP_DEGREES
        polys = field_polys(seed)
        return [(n, None, True) for n in range(lo, hi + 1)] + [(n, polys[n], False) for n in FIELD_DEGREES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_sweep"),
        Workload("semigroup_queries"),
    )
}


def field_polys(seed: int) -> dict[int, int]:
    """One seeded primitive polynomial per field degree of cli_sweep."""
    from multispinal import PrimitivePolynomial, is_primitive

    rng = rng_for("cli_sweep.field", seed)
    polys = {}
    for n in FIELD_DEGREES:
        while True:
            mask = (1 << n) | rng.getrandbits(n) | 1
            if is_primitive(PrimitivePolynomial(mask)):
                polys[n] = mask
                break
    return polys


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(argv: list[str], code: int, out: bytes) -> tuple[int, list[str]]:
    """Gate one CLI invocation: (operations attempted, failure reasons).

    A certify --all invocation holds one operation per degree; a failed
    invocation fails every operation it held.
    """
    if argv[0] == "certify" and "--all" in argv:
        lo = int(argv[argv.index("--n-min") + 1])
        hi = int(argv[argv.index("--n-max") + 1])
        expected = list(range(lo, hi + 1))
    elif argv[0] == "certify":
        expected = [int(argv[argv.index("--n") + 1])]
    else:
        expected = None
    ops = len(expected) if expected else 1
    if code != 0:
        return ops, [f"{' '.join(argv)}: exit code {code}"] * ops
    try:
        doc = json.loads(out)
    except ValueError as err:
        return ops, [f"{' '.join(argv)}: output is not JSON ({err})"] * ops
    if argv[0] == "certify":
        certs = doc.get("certificates", []) if "--all" in argv else [doc]
        if [c.get("n") for c in certs] != expected:
            return ops, [f"{' '.join(argv)}: certificates for {[c.get('n') for c in certs]}"] * ops
        return ops, [f"certify n={c['n']}: verdict {c.get('verdict')}" for c in certs if c.get("verdict") != "PASS"]
    n = int(argv[argv.index("--n") + 1])
    k, q = (1 << n) - 1, 1 << (n - 1)
    power, trace = doc.get("power_table", []), doc.get("trace_table", [])
    if doc.get("pass") is not True:
        return 1, [f"field n={n}: not PASS"]
    if len(power) != k or len(set(power)) != k:
        return 1, [f"field n={n}: power table is not {k} distinct entries"]
    if len(trace) != 1 << n or sum(trace) != q or set(trace) - {0, 1}:
        return 1, [f"field n={n}: trace table does not hold exactly {q} ones"]
    return 1, []


def witness_tails(out: bytes) -> int | None:
    """Tails 1^s 0 the region searches of a certify document tried: the
    search runs s = m, m+1, ... up to each returned witness, s - m + 1 tails.
    The same count the tracer reports as groupoid.witness_tails_tried,
    taken from the document so untraced runs can report it too."""
    doc = json.loads(out)
    tails = 0
    for cert in doc.get("certificates", [doc]):
        membership = cert.get("sections", {}).get("groupoid", {}).get("membership")
        if not isinstance(membership, dict):
            return None  # the document no longer has this layout
        for m, entry in membership.items():
            regions = entry.get("witnesses") or {k: r.get("witness", "") for k, r in entry.get("regions", {}).items()}
            tails += sum(len(w) - int(m) for w in regions.values())
    return tails


# -- semigroup_queries ------------------------------------------------------


def deck(rng: random.Random, values):
    """Draws from values, uniformly but dealt like cards: each value once
    per shuffled round.  A pass sees every word length, element length,
    nucleus state and m equally often, so the mix of cheap and costly
    requests, and with it the median and the tail of their latency,
    varies less from seed to seed."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def run_queries(group, ctx, seed: int, count: int, clock) -> dict:
    """The request loop of one semigroup_queries pass.

    A request is one query of each kind, one third each: a C10 axiom
    bundle on random triples, intersect_witness on a random element pair
    with random m < 2k, and germ_equal on random short words against a
    random eventually periodic tail.  Its latency covers the three calls;
    a single query's latency would be bimodal (memo hits against long
    walks), with the median falling in the gap between the modes.  Each
    request's inputs are drawn before its clock starts; loop_s covers the
    draws and the requests.  The reference check of witnesses runs after
    the loop, outside every clock.
    """
    from multispinal import SemigroupTriple, Tail, germ_equal, intersect_witness, sg_equal, sg_multiply, sg_star

    g = group
    rng = random.Random(seed)
    word_len, period_len = deck(rng, range(7)), deck(rng, range(1, 4))
    states, ms = deck(rng, g.nucleus_states), deck(rng, range(2 * ctx.k))
    # one deck per element role, since the length of s.g sets most of a
    # request's cost.  Elements are products of up to two nucleus states:
    # with up to three, the costly half (s.g of length 2 or 3) would meet
    # the cheap half exactly at the median, in a gap between the two.
    s_len, t_len, a_len, b_len = (deck(rng, range(3)) for _ in range(4))

    def bits(length):
        return "".join(rng.choice("01") for _ in range(length))

    def word():
        return bits(next(word_len))

    def element(lengths):
        e = g.identity
        for _ in range(next(lengths)):
            e = g.multiply(e, g.element(next(states)))
        return e

    def axioms(s, t):
        star = sg_star(g, s)
        star_star = sg_equal(g, sg_star(g, star), s)
        regular = sg_equal(g, sg_multiply(g, sg_multiply(g, s, star), s), s)
        e1 = sg_multiply(g, s, star)
        e2 = sg_multiply(g, t, sg_star(g, t))
        commute = sg_equal(g, sg_multiply(g, e1, e2), sg_multiply(g, e2, e1))
        idem = sg_equal(g, sg_multiply(g, s, s), s)
        shape = s.eta == s.mu and g.equal(s.g, g.identity)
        return star_star and regular and commute and idem == shape

    latencies, errors, witnesses = [], [], []
    start = clock()
    for i in range(count):
        x, y = rng.sample(range(ctx.size), 2)
        m = next(ms)
        s, t = SemigroupTriple(word(), element(s_len), word()), SemigroupTriple(word(), element(t_len), word())
        tail = Tail(word(), bits(next(period_len)))
        calls = ((axioms, (s, t)), (intersect_witness, (g, g.iota(x), g.iota(y), m)), (germ_equal, (g, element(a_len), element(b_len), tail)))
        results = []
        t0 = clock()
        for fn, args in calls:
            try:
                results.append(fn(*args))
            except Exception as err:  # a query that raises is a failed operation
                results.append(err)
        latencies.append(clock() - t0)
        for (fn, _), result in zip(calls, results):
            if isinstance(result, Exception):
                errors.append(f"request {i} ({fn.__name__}): {type(result).__name__}: {result}")
        if results[0] is False:
            errors.append(f"request {i}: an inverse-semigroup axiom does not hold")
        if isinstance(results[1], str):
            witnesses.append((i, x ^ y, m, results[1]))
    loop_s = clock() - start
    errors.extend(_check_witnesses(ctx, witnesses))
    return {"loop_s": loop_s, "latencies": latencies, "attempted": len(calls) * count, "errors": errors}


def _check_witnesses(ctx, witnesses) -> list[str]:
    """x xor y must lie in H_(s mod k) for each witness 1^s 0, by the
    independent reference field of tests/reference.py."""
    ref = _reference()
    field = ref.RefField(tuple((ctx.poly.mask >> i) & 1 for i in range(ctx.n + 1)))
    errors = []
    for i, y, m, w in witnesses:
        s = len(w) - 1
        if w != "1" * s + "0" or s < m:
            errors.append(f"request {i}: witness {w!r} is not 1^s 0 with s >= {m}")
        elif not ref.ref_hyperplane_membership(field, y, s % ctx.k):
            errors.append(f"request {i}: {y} is not in H_{s % ctx.k} (witness length {s})")
    return errors


def _reference():
    import importlib.util
    import sys
    from pathlib import Path

    if "perfbench_reference" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_reference", Path("tests") / "reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["perfbench_reference"] = module
    return sys.modules["perfbench_reference"]

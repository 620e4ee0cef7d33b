"""Command-line frontend.

Subcommands: field, design, matrix, nucleus, groupoid, certify.
Everything emits JSON (the matrix subcommand can emit CSV instead) to
stdout or to --out.  Exit status: 0 on PASS, 1 on a verified FAIL, 2 on
usage errors such as a non-primitive polynomial.
"""

from __future__ import annotations

import argparse
import json
import sys

# each subcommand imports the modules it uses, so a process loads only
# its own subcommand's share of the package
from .gf2n import DEFAULT_POLYS, field_context, field_section


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:  # a usage error: main exits 2
            raise ValueError(f"cannot write {out}: {err.strerror}") from err
    else:
        sys.stdout.write(text)


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte.

    With an indent json.dumps runs the pure-Python encoder.  Here only
    the nesting is walked in Python: a container holding no container is
    written by the C encoder with the item separator ",\n" + indent, and
    only its brackets are laid out here.
    """
    is_dict = isinstance(obj, dict)
    if not obj or not (is_dict or isinstance(obj, (list, tuple))):
        return json.dumps(obj)  # a scalar, or [] or {}
    inner = indent + "  "
    values = obj.values() if is_dict else obj
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        flat = json.dumps(obj, separators=(",\n" + inner, ": "))
        return f"{flat[0]}\n{inner}{flat[1:-1]}\n{indent}{flat[-1]}"
    if is_dict:
        parts = [f"{json.dumps(_json_key(k))}: {_dumps(v, inner)}" for k, v in obj.items()]
    else:
        parts = [_dumps(v, inner) for v in obj]
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}{closing}"


def _json_key(key) -> str:
    """A dict key as JSON writes it: str as is, and a number, bool or None
    as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit_json(doc, out: str | None) -> None:
    _emit(_dumps(doc) + "\n", out)


def cmd_field(args) -> int:
    ctx = field_context(args.n, args.poly)
    doc = field_section(ctx)
    doc["power_table"] = list(ctx.power_table)
    doc["trace_table"] = list(ctx.trace_table)
    _emit_json(doc, args.out)
    return 0 if doc["pass"] else 1


def cmd_design(args) -> int:
    from .certify import design_section
    from .exact_linalg import build_W, check_R_conditions
    from .groupoid import MEMBERSHIP_RULE
    from .hyperplanes import search_base_blocks

    if args.search_q is not None:
        blocks = search_base_blocks(args.search_q)
        doc = {
            "q": args.search_q,
            "k": 2 * args.search_q - 1,
            "count": len(blocks),
            "blocks": [[p for p in range(2 * args.search_q - 1) if mask >> p & 1] for mask in blocks],
        }
        _emit_json(doc, args.out)
        return 0
    ctx = field_context(args.n, args.poly)
    W = build_W(ctx)
    doc = {
        "base_block": hex(W.row1),
        "membership_rule": MEMBERSHIP_RULE,
        **design_section(W, check_R_conditions(W)),
    }
    _emit_json(doc, args.out)
    return 0 if doc["pass"] else 1


def cmd_matrix(args) -> int:
    from .certify import right_inverse_identity
    from .exact_linalg import build_T, build_W, check_R_conditions, rank_mod_p, rank_over_Q, row_label
    from .groupoid import MEMBERSHIP_RULE

    ctx = field_context(args.n, args.poly)
    W = build_W(ctx)
    if args.emit == "csv":
        lines = ["label," + ",".join(W.col_labels)]
        for i, row in enumerate(W.to_lists()):
            lines.append(row_label(i) + "," + ",".join(str(v) for v in row))
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    T = build_T(W)
    conditions = check_R_conditions(W)
    all_r = all(c["pass"] for c in conditions.values())
    doc = {
        "n": ctx.n,
        "q": ctx.q,
        "k": ctx.k,
        "base_block": hex(W.row1),
        "membership_rule": MEMBERSHIP_RULE,
        "T": {"a": str(T.a), "b": str(T.b), "rule": "T[j][i] = a where W[i][j] = 1, else b"},
        "R_conditions": conditions,
        "all_R_pass": all_r,
        "right_inverse_identity": right_inverse_identity(W, T, all_r),
    }
    ok = doc["all_R_pass"] and doc["right_inverse_identity"]
    if args.rank_field == "Q":
        r = rank_over_Q(W)
        doc["rank"] = {"field": "Q", "rank": r, "full": r == 2 * ctx.q}
        ok = ok and r == 2 * ctx.q
    elif args.rank_field:  # F2 or Fp:<p>, checked by main
        p = 2 if args.rank_field == "F2" else int(args.rank_field[3:])
        r = rank_mod_p(W, p)
        doc["rank"] = {"field": f"F{p}", "rank": r, "full": r == 2 * ctx.q}
    _emit_json(doc, args.out)
    return 0 if ok else 1


def cmd_nucleus(args) -> int:
    from .selfsim import NUCLEUS_RULE, MultispinalGroup

    ctx = field_context(args.n, args.poly)
    contraction = MultispinalGroup(ctx).verify_nucleus()
    doc = {
        "n": ctx.n,
        "e": {"output": "id", "on_0": "e", "on_1": "e"},
        "a": {"output": "swap", "on_0": "e", "on_1": "e"},
        "directed": {
            "count": ctx.k,
            "rule": NUCLEUS_RULE,
            "zero_trace_mask": hex(ctx.trace_zero_mask),
            "restriction_period": ctx.k,  # b(x)|1 = b(alpha x), and alpha has order k
        },
        "contraction": contraction,
        "pass": contraction["pass"],
    }
    _emit_json(doc, args.out)
    return 0 if contraction["pass"] else 1


def cmd_groupoid(args) -> int:
    from .certify import germ_row_verdict
    from .exact_linalg import build_W
    from .selfsim import MultispinalGroup

    ctx = field_context(args.n, args.poly)
    doc = {"n": ctx.n, **germ_row_verdict(MultispinalGroup(ctx), build_W(ctx))}
    doc["pass"] = doc["matches_transpose"]
    _emit_json(doc, args.out)
    return 0 if doc["pass"] else 1


def cmd_certify(args) -> int:
    from .certify import certify

    ns = list(range(args.n_min, args.n_max + 1)) if args.all else [args.n]
    docs = [certify(n, poly=args.poly, seed=args.seed) for n in ns]
    if args.all:
        verdict = all(d["verdict"] == "PASS" for d in docs)
        doc = {"range": [args.n_min, args.n_max], "certificates": docs,
               "verdict": "PASS" if verdict else "FAIL"}
    else:
        doc = docs[0]
        verdict = doc["verdict"] == "PASS"
    _emit_json(doc, args.out)
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multispinal",
        description="Exact certificates for binary multispinal group algebra structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_n=True):
        if need_n:
            p.add_argument("--n", type=int, required=True, help="field degree (>= 2)")
        p.add_argument("--poly", help="primitive polynomial: 'x^3+x+1', 0xB, ...")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("field", help="field tables and kernel checks")
    add_common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("design", help="2-design verification or base-block search")
    p.add_argument("--n", type=int, help="field degree")
    p.add_argument("--search-q", type=int, help="search base blocks for this even q")
    p.add_argument("--poly")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("matrix", help="inclusion matrix rule, right-inverse, ranks")
    add_common(p)
    p.add_argument("--rank-field", help="Q, F2 or Fp:<p>")
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("nucleus", help="e, a and the rule of the directed states; contraction check")
    add_common(p)
    p.set_defaults(func=cmd_nucleus)

    p = sub.add_parser("groupoid", help="the witness rule and the germ-row check against W")
    add_common(p)
    p.set_defaults(func=cmd_groupoid)

    p = sub.add_parser("certify", help="full pipeline with one PASS/FAIL verdict")
    p.add_argument("--n", type=int)
    p.add_argument("--all", action="store_true", help="certify a whole degree range")
    p.add_argument("--n-min", type=int, help="lowest degree of --all (default 2)")
    p.add_argument("--n-max", type=int, help="highest degree of --all (default 8)")
    p.add_argument("--poly")
    p.add_argument("--seed", type=int, default=0, help="echoed into the document; selects nothing")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "design" and args.search_q is None and args.n is None:
        parser.error("design needs --n or --search-q")
    field_given = args.n is not None or args.poly is not None  # every subcommand has both
    if args.command == "design" and args.search_q is not None and field_given:
        parser.error("design --search-q searches abstract base blocks; it takes neither --n nor --poly")
    if args.command == "matrix" and args.emit == "csv" and args.rank_field:
        parser.error("matrix --emit csv writes W alone; it takes no --rank-field")
    if args.command == "matrix" and args.rank_field not in (None, "Q", "F2"):
        from .exact_linalg import _is_prime

        spec = args.rank_field
        if not spec.startswith("Fp:"):
            parser.error(f"matrix --rank-field takes Q, F2 or Fp:<p>, got {spec!r}")
        if not spec[3:].isdecimal():
            parser.error(f"matrix --rank-field Fp:<p> needs an integer p, got {spec[3:]!r}")
        if not _is_prime(int(spec[3:])):
            parser.error(f"matrix --rank-field Fp:<p> needs a prime p, got {int(spec[3:])}")
    if args.command == "certify" and not args.all and args.n is None:
        parser.error("certify needs --n or --all")
    if args.command == "certify" and not args.all and (args.n_min is not None or args.n_max is not None):
        parser.error("certify --n-min and --n-max bound the range of --all, which is not given")
    if args.command == "certify" and args.all:
        args.n_min = 2 if args.n_min is None else args.n_min
        args.n_max = 8 if args.n_max is None else args.n_max
    if args.command == "certify" and args.all and field_given:
        parser.error("certify --all covers the stock polynomials of --n-min..--n-max; it takes neither --n nor --poly")
    if args.command == "certify" and args.all and args.n_min > args.n_max:
        parser.error(f"certify --all needs --n-min <= --n-max, got {args.n_min} > {args.n_max}")
    low, high = min(DEFAULT_POLYS), max(DEFAULT_POLYS)
    if args.command == "certify" and args.all and (args.n_min < low or args.n_max > high):
        parser.error(f"certify --all has stock polynomials for degrees {low}..{high}, got {args.n_min}..{args.n_max}")
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

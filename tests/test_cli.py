import hashlib
import inspect
import json
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "multispinal"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=300
    )


def test_certify_n2_passes():
    res = run_cli("certify", "--n", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "PASS"
    matrix = doc["sections"]["matrix"]
    assert matrix["right_inverse_identity"] is True
    assert doc["sections"]["design"]["params"] == [3, 1, 0]


def test_certify_n8_derives_every_rank_from_the_right_inverse():
    res = run_cli("certify", "--n", "8")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "PASS"
    matrix = doc["sections"]["matrix"]
    assert matrix["rank_over_Q"] == 256
    assert matrix["rank_mod_2"] == 9
    assert matrix["rank_mod_p"] == {"5": "skipped (divides k*q)", "7": 256, "11": 256, "13": 256}
    assert "rank_note" not in matrix
    assert doc["sections"]["groupoid"]["singular_certificate"]["rank_over_Q"] == 256
    assert doc["sections"]["groupoid"]["singular_certificate"]["germ_verified"] is True
    assert doc["sections"]["groupoid"]["germ_walks"] == 256


def test_certify_deterministic_bytes():
    a = run_cli("certify", "--n", "2", "--seed", "0")
    b = run_cli("certify", "--n", "2", "--seed", "0")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_matrix_rank_f2_below_full():
    res = run_cli("matrix", "--n", "3", "--rank-field", "F2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rank"]["field"] == "F2"
    assert doc["rank"]["rank"] < 8


def test_matrix_rank_q_full():
    res = run_cli("matrix", "--n", "2", "--rank-field", "Q")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert doc["rank"] == {"field": "Q", "rank": 4, "full": True}


def test_matrix_rank_fp():
    res = run_cli("matrix", "--n", "2", "--rank-field", "Fp:5")
    doc = json.loads(res.stdout)
    assert doc["rank"] == {"field": "F5", "rank": 4, "full": True}


def test_matrix_csv_golden():
    res = run_cli("matrix", "--n", "2", "--emit", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "label,H0,H1,H2,H0c,H1c,H2c"
    assert lines[1] == "0,1,1,1,0,0,0"
    assert lines[4] == "a^3,1,0,0,0,1,1"
    assert len(lines) == 5


def test_matrix_csv_takes_no_rank_field():
    # the CSV is W alone: a rank it would not write is a usage error
    res = run_cli("matrix", "--n", "3", "--emit", "csv", "--rank-field", "Q")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "takes no --rank-field" in res.stderr


@pytest.mark.parametrize(
    "spec, message",
    [
        ("R", "takes Q, F2 or Fp:<p>, got 'R'"),
        ("Fp:abc", "needs an integer p, got 'abc'"),
        ("Fp:9", "needs a prime p, got 9"),
    ],
)
def test_matrix_rank_field_is_checked_before_any_work(spec, message):
    # a usage error from the parser, before W, T and the R conditions are
    # built, not the ValueError of int() or rank_mod_p after them
    res = run_cli("matrix", "--n", "3", "--rank-field", spec)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage: ") and message in res.stderr


def _expand_membership_rule(base_block: int, k: int) -> list[list[int]]:
    """W's 2q rows from its base block by the stated membership rule: 0
    lies in every H_j, alpha^i (i = 1..k) lies in H_j iff bit
    (i + j - 1) mod k of the block is set, and H_j^c is the complement."""
    subgroup = [[1] * k] + [[base_block >> (i + j - 1) % k & 1 for j in range(k)] for i in range(1, k + 1)]
    return [row + [1 - v for v in row] for row in subgroup]


@pytest.mark.parametrize("n", range(2, 9))
def test_stated_rules_expand_to_the_hyperplanes_W_and_T(n, capsys):
    # design and matrix state W as its base block and the rules that
    # expand it; expanded, they give the field's hyperplanes, W and T
    from fractions import Fraction

    from multispinal import cli
    from multispinal.exact_linalg import build_T, build_W
    from multispinal.gf2n import field_context
    from multispinal.groupoid import MEMBERSHIP_RULE
    from multispinal.hyperplanes import build_hyperplanes

    docs = {}
    for command in ("design", "matrix"):
        assert cli.main([command, "--n", str(n)]) == 0
        docs[command] = json.loads(capsys.readouterr().out)
        assert docs[command]["membership_rule"] == MEMBERSHIP_RULE
    assert docs["design"]["base_block"] == docs["matrix"]["base_block"]
    ctx = field_context(n)
    k, q = ctx.k, ctx.q
    rows = _expand_membership_rule(int(docs["matrix"]["base_block"], 16), k)
    planes = build_hyperplanes(ctx)
    oracle = [[planes[j] >> x & 1 for j in range(k)] for x in ctx.canonical_elements()]
    assert rows == [row + [1 - v for v in row] for row in oracle]
    W = build_W(ctx)
    assert rows == W.to_lists()
    T = docs["matrix"]["T"]
    assert T["rule"] == "T[j][i] = a where W[i][j] = 1, else b"
    a, b = Fraction(T["a"]), Fraction(T["b"])
    assert tuple(tuple(a if rows[i][j] else b for i in range(2 * q)) for j in range(2 * k)) == build_T(W).rows


def test_matrix_reads_W_T_from_the_R_conditions(monkeypatch, capsys):
    # matrix decides W T = I the way certify does: build_T's T over a W
    # that passes R1-R9 needs no Gram check, so a failing one goes unseen
    import multispinal.certify as certify_module
    import multispinal.exact_linalg as linalg_module
    from multispinal import cli

    for module in (certify_module, linalg_module):
        monkeypatch.setattr(module, "verify_right_inverse", lambda W, T: False)
    assert cli.main(["matrix", "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_R_pass"] is True and doc["right_inverse_identity"] is True


@pytest.mark.parametrize("command", ["matrix", "design", "groupoid", "certify"])
def test_matrix_and_design_build_no_discrete_log(command, monkeypatch, capsys):
    # W's row 1 is the zero-trace mask rotated by one place, and each germ
    # walk of the groupoid section ends on a trace window
    from multispinal import cli
    from multispinal.gf2n import FieldContext

    def no_log(_):
        raise AssertionError("discrete log built")

    monkeypatch.setattr(FieldContext, "discrete_log", property(no_log))
    assert cli.main([command, "--n", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    passed = {"matrix": "all_R_pass", "certify": "verdict"}.get(command, "pass")
    assert doc[passed] in (True, "PASS")


def test_design_search_q_odd_exits_2():
    res = run_cli("design", "--search-q", "3")
    assert res.returncode == 2
    assert "even" in res.stderr


def test_design_search_q2():
    res = run_cli("design", "--search-q", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["blocks"] == [[0], [1], [2]]


def test_design_n3_states_the_base_block():
    res = run_cli("design", "--n", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["params"] == [7, 3, 1]
    assert doc["base_block"] == "0xb"  # alpha lies in H_0, H_1 and H_3
    assert "pair_count_table" not in doc and "block_members" not in doc


def test_non_primitive_poly_exits_2():
    res = run_cli("matrix", "--n", "2", "--poly", "x^2+1")
    assert res.returncode == 2
    assert "not primitive" in res.stderr


def test_mismatched_poly_degree_exits_2():
    res = run_cli("field", "--n", "3", "--poly", "x^2+x+1")
    assert res.returncode == 2


@pytest.mark.parametrize("extra", [("--poly", "x^2+x+1"), ("--n", "3")])
def test_certify_all_rejects_single_degree_options(extra):
    res = run_cli("certify", "--all", "--n-min", "2", "--n-max", "2", *extra)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--all" in res.stderr


@pytest.mark.parametrize("flag", ["--n-min", "--n-max"])
def test_certify_range_flags_need_all(flag):
    # without --all the range would be silently ignored
    res = run_cli("certify", "--n", "3", flag, "8")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--n-min and --n-max bound the range of --all" in res.stderr


def test_certify_all_defaults_to_degrees_2_to_8():
    res = run_cli("certify", "--all")
    assert res.returncode == 0
    assert json.loads(res.stdout)["range"] == [2, 8]
    pinned = PINNED_DOCUMENTS[("certify", "--all", "--n-min", "2", "--n-max", "8")]
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == pinned


def test_certify_all_rejects_empty_range():
    res = run_cli("certify", "--all", "--n-min", "5", "--n-max", "3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--n-min <= --n-max" in res.stderr


@pytest.mark.parametrize("n_min, n_max", [(1, 3), (2, 21)])
def test_certify_all_rejects_degrees_without_a_stock_polynomial(n_min, n_max, monkeypatch, capsys):
    # the range is checked before the first degree is certified
    import multispinal.certify as certify_module
    from multispinal import cli

    def refuse(*args, **kwargs):
        raise AssertionError("certify ran")

    monkeypatch.setattr(certify_module, "certify", refuse)
    with pytest.raises(SystemExit) as err:
        cli.main(["certify", "--all", "--n-min", str(n_min), "--n-max", str(n_max)])
    assert err.value.code == 2
    assert f"stock polynomials for degrees 2..20, got {n_min}..{n_max}" in capsys.readouterr().err


def test_certify_submodule_is_reachable():
    import multispinal
    import multispinal.certify as certify_module

    assert inspect.ismodule(certify_module)
    assert multispinal.certify is certify_module
    assert callable(certify_module.certify)


def run_python(script):
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'multispinal')))"


def test_import_multispinal_loads_no_submodule():
    assert run_python("import sys, multispinal\n" + LOADED) == "multispinal"


def test_field_subcommand_loads_only_gf2n():
    script = """
import contextlib, io, sys
from multispinal import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["field", "--n", "4"]) == 0
"""
    assert run_python(script + LOADED) == "multispinal multispinal.cli multispinal.gf2n"


def test_python_m_field_imports_only_cli_and_gf2n():
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *BASE[1:], "field", "--n", "4"], capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0
    names = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines() if line.startswith("import time:")}
    assert {m for m in names if m.split(".")[0] == "multispinal"} == {"multispinal", "multispinal.cli", "multispinal.gf2n"}


def test_lazy_exports_resolve():
    script = """
import inspect, multispinal
names = multispinal.__all__
assert len(names) == len(set(names)) == 40, names
assert all(hasattr(multispinal, name) for name in names)
star = {}
exec("from multispinal import *", star)
assert set(star) - {"__builtins__"} == set(names)
assert set(names) <= set(dir(multispinal)) and "certify" in dir(multispinal)
assert inspect.ismodule(multispinal.certify) and callable(multispinal.certify.certify)
try:
    multispinal.no_such_export
except AttributeError as err:
    assert "no_such_export" in str(err)
else:
    raise AssertionError("unknown attribute resolved")
print("ok")
"""
    assert run_python(script) == "ok"


def test_value_error_exits_2_and_other_errors_propagate(monkeypatch, capsys):
    # a ValueError is a usage error; any other unexpected exception propagates
    import multispinal.certify as certify_module
    from multispinal import cli

    def raising(error):
        def certify(*args, **kwargs):
            raise error

        return certify

    monkeypatch.setattr(certify_module, "certify", raising(ValueError("bad input")))
    assert cli.main(["certify", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad input\n"
    monkeypatch.setattr(certify_module, "certify", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        cli.main(["certify", "--n", "3"])


def test_emit_json_rejects_values_json_cannot_hold(tmp_path):
    from fractions import Fraction

    from multispinal import cli

    target = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        cli._emit_json({"bound": Fraction(1, 2)}, str(target))
    assert not target.exists()


# sha256 of each document with SOURCE_DATE_EPOCH=1700000000, recorded
# before W became the only membership table of the groupoid and bound
# code, for certify again when the bound section became the certified
# optimum, for design --n 8 and --search-q 6 before the design was read
# from the shift counts of one mask, and for the certify and groupoid
# documents when every germ row came from 2q walks (witnesses written
# "1^s 0", the full certificate at every degree); certify --all for
# n = 2..8 was pinned when the nucleus came to be read from the classes
# of the normal form; the three certify pins were renewed when the
# nucleus dropped its inert "depth_limit" key, their only change, and
# again when the groupoid section came to state the witness rule once in
# place of the witnesses for three m; the certify --all, design, matrix
# and groupoid pins were renewed when those documents came to state W
# as its base block and the rules that expand it in place of their
# instances (the groupoid pins taking no --m); nucleus --n 5 was pinned
# when it came to state e, a and the rule of the directed class in place
# of its k + 2 states; a refactor that keeps
# the certificates must keep these bytes, and a change that alters a
# document on purpose updates its pin and says why
PINNED_DOCUMENTS = {
    ("certify", "--all", "--n-min", "2", "--n-max", "8"):
        "d5da20a92ec56892f70b10cf09c386edf798bd6c3da3de1dcdfe29cbc94c4e12",
    ("certify", "--all", "--n-min", "2", "--n-max", "4", "--seed", "7"):
        "6228c8c41f09d7f8bfd75a378c25c05ab2bd49c7370951e97fb15513e576c7aa",
    ("groupoid", "--n", "5"):
        "9e1f5930a4c5d80ae4bb43998fde6688b70d87d2a0019cb895c3fb8f36e0ad51",
    ("groupoid", "--n", "7"):
        "1e64d1010e34643b8bfd325fa1fab5dcf3a708c33d22ab02d0cb27ad3eaa32ef",
    ("design", "--n", "5"):
        "af25ae36e802dc68d3f869afc0df9fba5bcf6e1fda32daf99741d3aca4a6a06e",
    ("matrix", "--n", "3"):
        "0ccd707e812e4307b9109a7b5e43d14ab848c1bf68c5dee367cca14586639da8",
    ("certify", "--n", "8"):
        "6b9178dc6ac3086882552e25ae411c9b20d88d3b870f356ebc8a7d8b8899d53d",
    ("design", "--n", "8"):
        "227eaa25153a05bc33206f3d0fac9feddd5a06f2daa4803daedcff0ffe7dc1a8",
    ("design", "--search-q", "6"):
        "82013212489b6f7d0804fcdc351bc58328ed764190b3a95c31c35cdc23c2df4a",
    ("nucleus", "--n", "5"):
        "52778866dd0be6907f81cc2f9ca5805f2e17d029b07c76c3c0e1d094321a1283",
}


@pytest.mark.parametrize("args", list(PINNED_DOCUMENTS), ids=lambda a: "_".join(a).replace("-", ""))
def test_documents_are_byte_identical(args):
    res = run_cli(*args)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == PINNED_DOCUMENTS[args]


def test_no_subcommand_imports_numpy():
    # NumPy serves only the public sample_bound_ratios spot-check; a CLI
    # process that imported it would pay its start-up time and memory.
    # Nor does any subcommand load dataclasses, or inspect with it: the
    # value classes are plain classes
    script = """
import contextlib, io, sys
from multispinal import cli
runs = [
    ["certify", "--all", "--n-min", "2", "--n-max", "5"],
    ["field", "--n", "3"],
    ["design", "--n", "3"],
    ["matrix", "--n", "3"],
    ["nucleus", "--n", "3"],
    ["groupoid", "--n", "3"],
    ["design", "--search-q", "4"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print([m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules])
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def _subcommand_documents():
    for n in (2, 3, 4):
        yield ["field", "--n", str(n)]
        yield ["design", "--n", str(n)]
        yield ["matrix", "--n", str(n), "--rank-field", "Q"]
        yield ["nucleus", "--n", str(n)]
        yield ["groupoid", "--n", str(n)]
        yield ["certify", "--n", str(n)]
    yield ["design", "--search-q", "4"]
    yield ["certify", "--all", "--n-min", "2", "--n-max", "4"]


@pytest.mark.parametrize("argv", list(_subcommand_documents()), ids=" ".join)
def test_json_emitter_matches_indented_dumps(argv, monkeypatch, tmp_path):
    from multispinal import cli

    docs = []
    monkeypatch.setattr(cli, "_emit_json", lambda doc, out: docs.append(doc))
    assert cli.main(argv) == 0
    (doc,) = docs
    assert cli._dumps(doc) == json.dumps(doc, indent=2)
    monkeypatch.undo()
    out = tmp_path / "doc.json"
    cli._emit_json(doc, str(out))
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        [], {}, (), [[]], {"a": {}}, [[], {}, [[{}]]], {"x": {"y": []}, "z": [{}]},
        'say "hi" \\ \n\t', "naïve ☃ 𝄞", {"quote\"key": "é", "ünïcode": ["☃", "\u0000"]},
        True, False, None, 0, -7, 2.5, [True, False, None, 1, 0], {"t": True, "f": False, "n": None},
        {1: "a", 2: [1, 2], True: None, None: 0, 2.5: {}}, {3: 1, 4: 2}, [1.0, -0.0, 1e300, 1e-7],
        (1, (2, (3, ()))), {"deep": [[1, [2, [3]]], {"k": [{"j": []}]}]}, list(range(50)),
    ],
)
def test_json_emitter_edge_cases(doc):
    from multispinal import cli

    assert cli._dumps(doc) == json.dumps(doc, indent=2)


def test_unknown_subcommand_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_field_output():
    res = run_cli("field", "--n", "2")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert doc["power_table"] == [1, 2, 3]
    assert doc["trace_table"] == [0, 0, 1, 1]
    assert doc["joint_kernel_trivial"] is True


def _expand_nucleus_rule(doc) -> dict:
    """Every state of a nucleus document by name, as {"output", "on_0",
    "on_1"}: e and a as stated, and b_j, j = 1..k, by the stated rule
    (NUCLEUS_RULE): output id, on_1 = b_(j+1) with b_(k+1) = b_1, and
    on_0 = a iff bit j mod k of zero_trace_mask is clear, else e."""
    k, mask = doc["directed"]["count"], int(doc["directed"]["zero_trace_mask"], 16)
    states = {"e": doc["e"], "a": doc["a"]}
    for j in range(1, k + 1):
        states[f"b{j}"] = {"output": "id", "on_0": "e" if mask >> (j % k) & 1 else "a", "on_1": f"b{j % k + 1}"}
    return states


def test_nucleus_output():
    res = run_cli("nucleus", "--n", "2")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert list(doc) == ["n", "e", "a", "directed", "contraction", "pass"]
    names = _expand_nucleus_rule(doc)
    assert set(names) == {"e", "a", "b1", "b2", "b3"}
    assert names["b1"]["on_1"] == "b2"
    assert names["b2"]["on_1"] == "b3"
    assert names["b3"]["on_1"] == "b1"
    assert names["b1"]["on_0"] == "a"
    assert names["b3"]["on_0"] == "e"
    assert doc["directed"]["restriction_period"] == 3
    assert doc["contraction"]["pass"] is True


@pytest.mark.parametrize("n", range(2, 9))
def test_stated_nucleus_rule_expands_to_the_reference_automaton(n, monkeypatch, capsys):
    # e, a and every b_j = b(alpha^j) of the expanded rule against the
    # reference automaton: the output letter and both restrictions; the
    # command builds neither the state list nor the discrete log
    from multispinal import cli
    from multispinal.gf2n import FieldContext, field_context
    from multispinal.selfsim import NUCLEUS_RULE, MultispinalGroup

    from reference import RefField, _ref_automaton

    def refuse(_):
        raise AssertionError("state list or discrete log built")

    monkeypatch.setattr(MultispinalGroup, "nucleus_states", property(refuse))
    monkeypatch.setattr(FieldContext, "discrete_log", property(refuse))
    assert cli.main(["nucleus", "--n", str(n)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["directed"]["rule"] == NUCLEUS_RULE
    field = RefField(tuple((field_context(n).poly.mask >> i) & 1 for i in range(n + 1)))
    auto = _ref_automaton(field)
    words = {"e": (), "a": (("a",),)}
    x = field.from_int(1)
    for j in range(1, (1 << n)):
        x = field.mul(x, field.alpha())
        words[f"b{j}"] = (("b", field.to_int(x)),)
    states = _expand_nucleus_rule(doc)
    assert set(states) == set(words)
    for name, state in states.items():
        for ch in "01":
            rest, image = auto.step(words[name], ch)
            assert (image == ch) == (state["output"] == "id"), (name, ch)
            assert rest == words[state[f"on_{ch}"]], (name, ch)


def test_groupoid_certificate():
    res = run_cli("groupoid", "--n", "2")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert list(doc) == ["n", "germ_walks", "witness_rule", "matches_transpose", "pass"]
    assert doc["germ_walks"] == 4
    assert doc["witness_rule"] == "H_j and H_j^c: 1^s 0 1^inf, s = m + (j - m) mod k, every m >= 0"
    assert doc["matches_transpose"] is True
    assert doc["pass"] is True


def test_groupoid_has_no_verify_flag():
    # nor a budget: each region's witness is the closed form 1^s 0, and
    # groupoid and certify state that rule for every m, so they take no
    # --m or --m-values
    for args in (
        ("groupoid", "--n", "2", "--verify"),
        ("nucleus", "--n", "3", "--depth", "8"),
        ("groupoid", "--n", "3", "--depth", "9"),
        ("groupoid", "--n", "3", "--m", "1"),
        ("certify", "--n", "3", "--m-values", "1"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert "unrecognized arguments" in res.stderr


@pytest.mark.parametrize("extra", [("--n", "3"), ("--poly", "x^3+x+1")])
def test_design_search_q_takes_no_field(extra):
    # --search-q searches abstract base blocks, so a field option would be
    # silently ignored
    res = run_cli("design", "--search-q", "4", *extra)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "takes neither --n nor --poly" in res.stderr


def test_certify_reports_wrong_germ_rows_as_fail(monkeypatch, tmp_path):
    from multispinal import cli, groupoid

    real = groupoid.germ_equal
    monkeypatch.setattr(groupoid, "germ_equal", lambda group, g1, g2, tail: not real(group, g1, g2, tail))
    out = tmp_path / "doc.json"
    assert cli.main(["certify", "--n", "3", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "FAIL"
    section = doc["sections"]["groupoid"]
    assert section["matches_transpose"] is False
    assert section["error"].startswith("membership mismatch at row H0, column ")


def test_certify_states_the_witness_rule_once():
    # the groupoid section is the rule and one germ-row verdict, whatever
    # the degree: the whole document stays small
    res = run_cli("certify", "--n", "12")
    assert res.returncode == 0
    assert len(res.stdout.encode()) < 8 << 10
    section = json.loads(res.stdout)["sections"]["groupoid"]
    assert list(section) == ["germ_walks", "witness_rule", "matches_transpose", "singular_certificate", "pass"]
    assert section["germ_walks"] == 1 << 12 and section["matches_transpose"] is True


@pytest.mark.parametrize("command", ["design", "matrix", "groupoid", "nucleus"])
def test_documents_state_rules_not_instances(command):
    # W as its base block, T as its two values, the witnesses and the
    # directed states as one rule each: a 2^n-fold listing would not fit
    res = run_cli(command, "--n", "10")
    assert res.returncode == 0
    assert len(res.stdout.encode()) < 8 << 10


def test_out_file(tmp_path):
    target = tmp_path / "doc.json"
    res = run_cli("design", "--n", "2", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["params"] == [3, 1, 0]


@pytest.mark.parametrize("command", ["certify", "field"])
@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_unwritable_out_exits_2(command, where, tmp_path):
    # the document is computed, but writing it is an error of the
    # invocation, not a verified FAIL
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "doc.json"
    res = run_cli(command, "--n", "3", "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

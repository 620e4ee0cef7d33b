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


def test_certify_n2_passes_and_reproduces_matrices():
    res = run_cli("certify", "--n", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "PASS"
    matrix = doc["sections"]["matrix"]
    assert matrix["W"] == [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [1, 0, 0, 0, 1, 1],
    ]
    assert matrix["T"][0] == ["1/3", "-1/6", "-1/6", "1/3"]
    assert matrix["T"][5] == ["-1/6", "-1/6", "1/3", "1/3"]
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


def test_design_search_q_odd_exits_2():
    res = run_cli("design", "--search-q", "3")
    assert res.returncode == 2
    assert "even" in res.stderr


def test_design_search_q2():
    res = run_cli("design", "--search-q", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["blocks"] == [[0], [1], [2]]


def test_design_n3_pair_table():
    res = run_cli("design", "--n", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["params"] == [7, 3, 1]
    assert doc["pair_count_table"]["all_equal"] is True
    assert doc["pair_count_table"]["observed_counts"] == {"1": 21}


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
# nucleus dropped its inert "depth_limit" key, their only change; a
# refactor that keeps the certificates must keep these bytes, and a change that alters a document on purpose updates its
# pin and says why
PINNED_DOCUMENTS = {
    ("certify", "--all", "--n-min", "2", "--n-max", "8"):
        "d633c7c1d9115ef7723fea7d2c20a7384854aad4b493f8551cf9c6f4f2c3b0af",
    ("certify", "--all", "--n-min", "2", "--n-max", "4", "--seed", "7"):
        "0c71f1263758851ed31fce1141e19239b860f166f573f2ae0feb1184e2af15ef",
    ("groupoid", "--n", "5", "--m", "2"):
        "e6c167b9de5a2127a624f990ad19f35037338ff488f9ccdf77380bf718d37ea2",
    ("groupoid", "--n", "7", "--m", "1"):
        "b5f94f62da5b936b45bc20ad0279ac7efaac664caec29ed6b8a748e2cca4e4fa",
    ("design", "--n", "5"):
        "33a8b8a61816da7b25574166593ddf9f73b28353d0a3db084ef73813a28efd15",
    ("matrix", "--n", "3"):
        "320551aa30ba70251de30f98b5a3d3e417319acc11288599133a8fb163cd053f",
    ("certify", "--n", "8"):
        "19847cda80da179ab174824dd551b3c8cd96c87ecfa1a75163636070d89334d4",
    ("design", "--n", "8"):
        "03e03df199f5038260eb76bb3bb81aa3a9edac4872c16e0fcd866e228edcb2bd",
    ("design", "--search-q", "6"):
        "82013212489b6f7d0804fcdc351bc58328ed764190b3a95c31c35cdc23c2df4a",
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
    ["groupoid", "--n", "3", "--m", "1"],
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
        yield ["groupoid", "--n", str(n), "--m", "2"]
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


def test_nucleus_output():
    res = run_cli("nucleus", "--n", "2")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    names = {s["name"]: s for s in doc["states"]}
    assert set(names) == {"e", "a", "b1", "b2", "b3"}
    assert names["b1"]["on_1"] == "b2"
    assert names["b2"]["on_1"] == "b3"
    assert names["b3"]["on_1"] == "b1"
    assert names["b1"]["on_0"] == "a"
    assert names["b3"]["on_0"] == "e"
    assert names["b1"]["restriction_period"] == 3
    assert doc["contraction"]["pass"] is True


def test_groupoid_certificate():
    res = run_cli("groupoid", "--n", "2", "--m", "1")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert list(doc) == ["n", "m", "germ_walks", "witnesses", "matches_transpose", "pass"]
    assert doc["germ_walks"] == 4
    assert doc["matches_transpose"] is True
    tails = {"H0": "1^3 0", "H1": "1^1 0", "H2": "1^2 0"}
    assert doc["witnesses"] == tails | {f"{label}c": w for label, w in tails.items()}
    assert doc["pass"] is True


def test_groupoid_has_no_verify_flag():
    # nor a budget: each region's witness is the closed form 1^s 0
    for args in (
        ("groupoid", "--n", "2", "--m", "1", "--verify"),
        ("nucleus", "--n", "3", "--depth", "8"),
        ("groupoid", "--n", "3", "--m", "1", "--depth", "9"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert "unrecognized arguments" in res.stderr


@pytest.mark.parametrize(
    "args", [("groupoid", "--n", "3", "--m", "-2"), ("certify", "--n", "3", "--m-values", "1", "-2")]
)
def test_negative_m_exits_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert "must be >= 0" in res.stderr


@pytest.mark.parametrize("m_values", [(), (1, 1), (2, 1, 2)])
def test_certify_rejects_empty_or_repeated_m_values(m_values):
    # the groupoid section keys its membership by m and reads m_values[0]
    from multispinal.certify import certify

    with pytest.raises(ValueError, match="m_values must be nonempty and distinct"):
        certify(3, m_values=m_values)


def test_certify_repeated_m_values_exit_2():
    res = run_cli("certify", "--n", "3", "--m-values", "1", "1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "m_values must be nonempty and distinct" in res.stderr


@pytest.mark.parametrize("extra", [("--n", "3"), ("--poly", "x^3+x+1")])
def test_design_search_q_takes_no_field(extra):
    # --search-q searches abstract base blocks, so a field option would be
    # silently ignored
    res = run_cli("design", "--search-q", "4", *extra)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "takes neither --n nor --poly" in res.stderr


@pytest.mark.parametrize("n, m, h0", [(5, 3, "1^31 0"), (3, 0, "1^0 0"), (3, 1, "1^7 0")])
def test_groupoid_witnesses_have_no_budget(n, m, h0):
    # H0 at m = 3 in degree 5 needs the witness 1^31 0, and m = 0 the
    # tail 0 1^infinity: both PASS
    res = run_cli("groupoid", "--n", str(n), "--m", str(m))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["pass"] is True and doc["witnesses"]["H0"] == h0


def test_certify_reports_wrong_germ_rows_as_fail(monkeypatch, tmp_path):
    from multispinal import cli, groupoid

    real = groupoid.germ_equal
    monkeypatch.setattr(groupoid, "germ_equal", lambda group, g1, g2, tail: not real(group, g1, g2, tail))
    out = tmp_path / "doc.json"
    assert cli.main(["certify", "--n", "3", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "FAIL"
    for entry in doc["sections"]["groupoid"]["membership"].values():
        assert entry["matches_transpose"] is False
        assert entry["error"].startswith("membership mismatch at row H0, column ")


def test_out_file(tmp_path):
    target = tmp_path / "doc.json"
    res = run_cli("design", "--n", "2", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["params"] == [3, 1, 0]

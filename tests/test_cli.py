"""The command-line surface: exit-code conventions, golden outputs, and the
parse/print round trip over every bundled document."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mdgkit
import mdgkit.cli as cli
from mdgkit import fixture_path, load_fixture
from mdgkit.cli import run_command
from mdgkit.complexes import ComplexError, FreeComplex
from mdgkit.groebner import LINEAR_STATS, STATS
from mdgkit.parser import format_document, parse_document

FK = str(fixture_path("fk"))
FA = str(fixture_path("fa"))
TAYLOR = str(fixture_path("taylor_x2_xy"))
SPLIT = str(fixture_path("fk_split"))
EX55 = str(fixture_path("ex55"))

ALL_FIXTURES = ["fk", "fk_split", "fm", "fa", "fo_presentation", "fo_full",
                "ex6", "ex55", "taylor_x2_xy"]


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# -- exit-code conventions ----------------------------------------------------


def test_check_valid_fixture(capsys):
    code, out, _ = run(capsys, ["check", TAYLOR])
    assert code == 0
    assert out == "all checks passed"


def test_every_fixture_passes_check(capsys):
    for name in ALL_FIXTURES:
        code, _, _ = run(capsys, ["check", str(fixture_path(name))])
        assert code == 0, name


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, ["check", "/no/such/file.mdg"])
    assert code == 2
    assert "error" in err


def test_bad_syntax_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.mdg"
    bad.write_text("ring x;\ncomplex F { basis 2: a mdeg(1); basis 1: "
                   "b mdeg(1); }\n")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run(capsys, ["frobnicate", FK])[0] == 2


def test_reduce_requires_an_expression(capsys):
    assert run(capsys, ["reduce", TAYLOR])[0] == 2


def test_laurent_modulus_is_an_input_error(capsys):
    code, _, err = run(capsys, ["assoc", FK, "--modulus", "x/y",
                                "--triple", "e1,e5,e2"])
    assert code == 2
    assert "'x/y' is not a polynomial" in err


@pytest.mark.parametrize("argv, text", [
    (["assoc", FK, "--triple", "e1,e5,e2", "--modulus", "x-x"], "x-x"),
    (["taylor", "--ring", "x,y", "--ideal", "x,y-y"], "y-y"),
    (["cone", FK, "--expr", "0"], "0"),
])
def test_a_zero_scalar_is_named_as_zero(capsys, argv, text):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {text!r} is zero"


@pytest.mark.parametrize("product", ["(x+y)*e12", "e12/x"])
def test_gb_rejects_a_table_that_is_not_multihomogeneous(tmp_path, capsys,
                                                         product):
    # the Taylor table of (x^2, x*y) with e1*e2 = x*e12 replaced
    text = fixture_path("taylor_x2_xy").read_text()
    assert "e1*e2 = x*e12;" in text
    bad = tmp_path / "bad.mdg"
    bad.write_text(text.replace("e1*e2 = x*e12;", f"e1*e2 = {product};"))
    for argv in (["gb", str(bad)], ["reduce", str(bad), "--expr", "e1*e2"],
                 ["assoc", str(bad)], ["alt", str(bad)],
                 ["submodule", str(bad)], ["quotient", str(bad)]):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "product e1*e2" in err and "not multihomogeneous" in err
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 1
    assert out.startswith("mu: e1*e2")
    # `assoc --triple` multiplies Elements, so it reads any table; e12*e1
    # lies above the top degree, so this associator is exactly 0
    code, out, _ = run(capsys, ["assoc", str(bad), "--triple", "e1,e2,e1"])
    assert (code, out) == (0, "0")


WRONG_DEGREE = """\
ring x, y;

complex F {
  basis 1: a mdeg(1, 0), b mdeg(0, 1), c mdeg(1, 1);
  basis 2: q mdeg(1, 2);
  d a = 0; d b = 0; d c = 0; d q = 0;
}

mult mu on F {
  a*b = c; a*c = 0; a*q = 0;
  b*c = q; b*q = 0;
  c*q = 0; q*q = 0;
}
"""


def test_gb_rejects_a_product_in_the_wrong_homological_degree(tmp_path,
                                                              capsys):
    # a*b = c lands in degree 1, not 2: every basis triple has total degree
    # 3 > 2, so the triple check would skip them all and call this complete
    # table associative, yet [a,b,b] = (a*b)*b - a*(b*b) = c*b = -q
    bad = tmp_path / "bad.mdg"
    bad.write_text(WRONG_DEGREE)
    for argv in (["gb", str(bad)], ["reduce", str(bad), "--expr", "a*b"],
                 ["assoc", str(bad)], ["alt", str(bad)],
                 ["submodule", str(bad)], ["quotient", str(bad)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "product a*b lands in degrees [1], expected 2" in err
        assert "not homogeneous" in err
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 1
    assert out == "mu: a*b lands in degrees [1], expected 2"
    code, out, _ = run(capsys, ["assoc", str(bad), "--triple", "a,b,b"])
    assert code == 1
    assert out == "-q"


def test_a_differential_with_a_denominator_is_an_input_error(tmp_path,
                                                             capsys):
    text = fixture_path("fa").read_text()
    assert "d e3 = z*w;" in text
    bad = tmp_path / "laurent.mdg"
    bad.write_text(text.replace("d e3 = z*w;", "d e3 = z/x*w;"))
    for cmd in ("homology", "submodule", "quotient"):
        code, out, err = run(capsys, [cmd, str(bad)])
        assert code == 2
        assert out == ""
        assert "not a complex: d(e3) has multidegree (-1, 0, 1, 1)" in err
    assert run(capsys, ["check", str(bad)])[0] == 1


LAURENT_COEFFICIENT = """ring x, y;

complex L {
  basis 1: a mdeg(0, 1), b mdeg(1, 0);
  basis 2: c mdeg(1, 0);
  d a = y;
  d b = x;
  d c = x/y*a - b;
}

mult mu on L {
  a*b = -y*c;
}
"""


def test_a_coefficient_with_a_denominator_at_the_right_multidegree_fails_check(
        tmp_path, capsys):
    # d(c) has multidegree (1, 0) and d^2 = 0, but x/y is no polynomial
    bad = tmp_path / "laurent_coefficient.mdg"
    bad.write_text(LAURENT_COEFFICIENT)
    problem = "d(c): (x)/(y) on a is not a polynomial"
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 1
    assert out.splitlines() == [f"L: {problem}"]
    for cmd in ("homology", "submodule", "quotient"):
        code, out, err = run(capsys, [cmd, str(bad)])
        assert code == 2
        assert out == ""
        assert err == f"error: not a complex: {problem}"


def test_check_reports_a_complex_problem_once_for_all_its_tables(tmp_path,
                                                                 capsys):
    # two tables on the complex: its problem is printed once, under its own
    # name, and each table adds only problems of its own
    bad = tmp_path / "two_tables.mdg"
    bad.write_text(LAURENT_COEFFICIENT + "\nmult nu on L {\n  a*b = c;\n}\n")
    expected = ["L: d(c): (x)/(y) on a is not a polynomial",
                "nu: a*b has multidegree (1, 0), expected (1, 1)"]
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 1
    assert out.splitlines()[:2] == expected
    assert [line for line in out.splitlines() if line.startswith("mu:")] == []
    code, out, _ = run(capsys, ["check", str(bad), "--json"])
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "fail"
    assert payload["problems"][:2] == expected
    assert sum(p.startswith("nu: Leibniz fails") for p in payload["problems"]) == 1
    assert len(payload["problems"]) == 3


def test_check_checks_each_complex_once(tmp_path, capsys, monkeypatch):
    # fk_split and the broken document each carry two tables on a complex
    two_tables = tmp_path / "two_tables.mdg"
    two_tables.write_text(LAURENT_COEFFICIENT
                          + "\nmult nu on L {\n  a*b = c;\n}\n")
    original = FreeComplex.check
    calls = []

    def counted(cx):
        calls.append(cx.name)
        return original(cx)

    def both(path):
        return [run(capsys, ["check", path, *flag])
                for flag in ([], ["--json"])]

    for path, code in [(SPLIT, 0), (FK, 0), (str(two_tables), 1)]:
        outputs = both(path)
        monkeypatch.setattr(FreeComplex, "check", counted)
        calls.clear()
        assert both(path) == outputs
        monkeypatch.undo()
        assert [c for c, _, _ in outputs] == [code, code]
        names = list(parse_document(Path(path).read_text()).complexes)
        assert calls == names + names


def test_homology_commands_refuse_a_map_with_nonzero_square(tmp_path, capsys):
    text = fixture_path("fa").read_text()
    bad = tmp_path / "square.mdg"
    bad.write_text(text.replace("d e3 = z*w;", "d e3 = 2*z*w;"))
    for cmd in ("homology", "submodule", "quotient"):
        code, out, err = run(capsys, [cmd, str(bad)])
        assert code == 2
        assert out == ""
        assert "not a complex: d^2(e13) = x^2*z*w != 0" in err
    assert run(capsys, ["check", str(bad)])[0] == 1
    with pytest.raises(ComplexError, match=r"not a complex: d\^2\(e13\)"):
        parse_document(bad.read_text()).algebra().complex.homology_dims()


@pytest.mark.parametrize("text", ["", "ring x, y;\n"])
def test_check_rejects_a_document_without_a_complex(tmp_path, capsys, text):
    empty = tmp_path / "empty.mdg"
    empty.write_text(text)
    code, out, err = run(capsys, ["check", str(empty)])
    assert code == 2
    assert out == ""
    assert "document has 0 complexes" in err


def test_duplicate_ring_variable_is_an_input_error(tmp_path, capsys):
    dup = tmp_path / "dup.mdg"
    dup.write_text("ring x, x;\n")
    code, _, err = run(capsys, ["check", str(dup)])
    assert code == 2
    assert "duplicate variable 'x'" in err


def test_taylor_duplicate_ring_variable_is_an_input_error(capsys):
    code, _, err = run(capsys, ["taylor", "--ring", "x,x", "--ideal", "x"])
    assert code == 2
    assert "duplicate variable 'x'" in err


@pytest.mark.parametrize("ring, bad", [("x,,y", ""), ("2x,y", "2x"),
                                       ("²", "²"), ("٣", "٣")])
def test_taylor_rejects_a_name_that_is_not_an_identifier(capsys, ring, bad):
    code, out, err = run(capsys, ["taylor", "--ring", ring, "--ideal", "y"])
    assert code == 2
    assert out == ""
    assert f"{bad!r} in --ring is not a variable name" in err


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_a_digit_that_is_not_ascii_is_an_input_error(tmp_path, capsys, digit):
    # "²" and "٣" pass str.isdigit; int() refuses the first and reads the
    # second as 3
    doc = tmp_path / "digit.mdg"
    doc.write_text(f"ring x;\ncomplex F {{\n  basis 1: e mdeg({digit});\n"
                   "  d e = x;\n}\n")
    code, _, err = run(capsys, ["check", str(doc)])
    assert code == 2
    assert f"line 3, col 19: unexpected character {digit!r}" in err


def test_taylor_refuses_twelve_generators_naming_the_limit(capsys):
    ring = ",".join("abcdefghijkl")
    code, out, err = run(capsys, ["taylor", "--ring", ring, "--ideal", ring])
    assert code == 2
    assert out == ""
    assert ("a Taylor algebra takes at most 11 generators, got 12: its basis "
            "names e<indices> would collide") in err


def test_taylor_rejects_a_variable_named_like_a_basis_element(capsys):
    code, out, err = run(capsys, ["taylor", "--ring", "e1,y",
                                  "--ideal", "y^2,e1*y"])
    assert code == 2
    assert out == ""
    assert "'e1' in --ring is also the name of a basis element" in err


def test_a_basis_element_named_like_a_ring_variable_is_an_input_error(
        tmp_path, capsys):
    # without the check, `e1` in `d e2 = e1*y` silently means the variable
    # and `mdg check` reports failed axioms (exit 1) on an ambiguous input
    doc = tmp_path / "clash.mdg"
    doc.write_text("ring e1, y;\n\ncomplex T {\n"
                   "  basis 1: e1 mdeg(0, 2), e2 mdeg(1, 1);\n"
                   "  basis 2: e12 mdeg(1, 2);\n"
                   "  d e1 = y^2;\n  d e2 = e1*y;\n"
                   "  d e12 = -e1*e1 + y*e2;\n}\n")
    code, _, err = run(capsys, ["check", str(doc)])
    assert code == 2
    assert "basis element 'e1' has the name of a ring variable" in err


# -- golden outputs -----------------------------------------------------------


def test_assoc_triple_golden(capsys):
    code, out, _ = run(capsys, ["assoc", FK, "--triple", "e1,e5,e2"])
    assert code == 1
    assert out == "y^2*z*e123 - y*z^2*e124 + y*z*w*e134 - x*y*z*e234"


def test_assoc_zero_triple_exits_zero(capsys):
    code, out, _ = run(capsys, ["assoc", FK, "--triple", "e1,e1,e2"])
    assert code == 0
    assert out == "0"


def test_assoc_without_triple_reports_first_witness(capsys):
    code, out, _ = run(capsys, ["assoc", FK])
    assert code == 1
    assert out.startswith("not associative: [e1,e2,e5] =")
    code, out, _ = run(capsys, ["assoc", TAYLOR])
    assert code == 0


def test_the_module_entry_point_keeps_the_exit_code():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(mdgkit.__file__)))
    run = subprocess.run([sys.executable, "-m", "mdgkit.cli", "assoc", FK],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert run.stdout.startswith("not associative")


def _one_generator(mdeg: int, value: str) -> str:
    return (f"ring x;\ncomplex C {{\n  basis 1: a mdeg({mdeg});\n"
            f"  d a = {value};\n}}\n")


@pytest.mark.parametrize("command, text, code, stream", [
    # chains of + and * of any length parse and evaluate in loops
    ("check", _one_generator(1, " + ".join(["x"] * 1200)), 0,
     "all checks passed"),
    ("check", _one_generator(1200, "*".join(["x"] * 1200)), 0,
     "all checks passed"),
    ("reduce", " + ".join(["e1*e2"] * 1000), 0, "(1000)*e12"),
    # nesting is bounded by the stack, and exceeding it is an input error
    ("check", _one_generator(1, "(" * 400 + "x" + ")" * 400), 2,
     "error: expression nested too deeply"),
], ids=["sum", "product", "reduce", "nested"])
def test_a_long_expression_never_crashes_the_cli(tmp_path, command, text,
                                                 code, stream):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(mdgkit.__file__)))
    if command == "reduce":
        argv = ["reduce", FK, "--expr", text]
    else:
        doc = tmp_path / "long.mdg"
        doc.write_text(text)
        argv = [command, str(doc)]
    done = subprocess.run([sys.executable, "-m", "mdgkit.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == code
    assert (done.stdout if code == 0 else done.stderr) == stream + "\n"
    assert "Traceback" not in done.stderr


def test_assoc_modulo_monomial_ideal(capsys):
    # the obstruction at (e1, e45, e2) survives modulo (x^2, y, z, w)
    code, out, _ = run(capsys, ["assoc", FA, "--triple", "e1,e45,e2",
                                "--modulus", "x^2,y,z,w"])
    assert code == 1
    assert out.splitlines() == ["x*e12345",
                                "modulo (x^2,y,z,w): x*e12345"]


def test_reduce_golden_on_the_21_generator_table(capsys):
    code, out, _ = run(capsys, ["reduce", EX55, "--expr", "e12*e35"])
    assert code == 0
    assert out == "-(v)*e12345"


@pytest.mark.parametrize("expr", ["e1^3000000", "e12^300000"])
def test_reduce_takes_a_large_power_promptly(capsys, expr):
    # a power is taken by squaring, so the exponent costs about log2 n
    # products; both powers reduce to 0 on fk
    start = time.perf_counter()
    assert run(capsys, ["reduce", FK, "--expr", expr]) == (0, "0", "")
    assert time.perf_counter() - start < 10


def test_alt_and_submodule_and_quotient(capsys):
    assert run(capsys, ["alt", FK])[0] == 0
    code, out, _ = run(capsys, ["submodule", FK, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == 36
    assert payload["homology"] == {"3": 1, "4": 0}
    code, out, _ = run(capsys, ["quotient", FK, "--json"])
    assert code == 0
    assert json.loads(out)["dims"] == {"1": 0, "2": 0, "3": 0, "4": 1}


def test_gb_certificates(capsys):
    code, out, _ = run(capsys, ["gb", TAYLOR, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["associative"] and payload["basis_size"] == 6
    code, out, _ = run(capsys, ["gb", FK, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["associative"]
    assert payload["witnesses"]


@pytest.mark.parametrize("name, route", [("taylor_x2_xy", "linear"),
                                         ("fk", "linear"),
                                         ("ex6", "buchberger")])
def test_gb_json_reports_the_route(capsys, name, route):
    # complete tables take the linear route, the partial ex6 is completed
    _, out, _ = run(capsys, ["gb", str(fixture_path(name)), "--json"])
    assert json.loads(out)["route"] == route


@pytest.mark.parametrize("command", ["gb", "reduce"])
@pytest.mark.parametrize("name", ["fk", "ex6"])
def test_json_reports_the_completion_stats(capsys, command, name):
    # the complete fk table takes the linear route, which reports the
    # triples it read; the partial ex6 is completed by buchberger
    argv = [command, str(fixture_path(name)), "--json"]
    if command == "reduce":
        argv += ["--expr", "e1*e2"]
    _, out, _ = run(capsys, argv)
    stats = json.loads(out)["stats"]
    if name == "fk":
        assert set(stats) == set(LINEAR_STATS) and stats["triples_read"] > 0
        assert stats["span_rank"] == 2      # fk has two witnesses
    else:
        assert set(stats) == set(STATS) and stats["monomial_skips"] > 0


@pytest.mark.parametrize("expr, term", [("x*e1 + e1", "e1"),
                                        ("e1*e2 + x*e1*e2", "e1*e2")])
def test_reduce_refuses_an_expression_that_is_not_multihomogeneous(
        capsys, expr, term):
    code, out, err = run(capsys, ["reduce", FK, "--expr", expr])
    assert code == 2 and out == ""
    assert "not multihomogeneous" in err
    assert f": {term} has multidegree" in err


def test_reduce_keeps_the_normal_form_of_a_homogeneous_expression(capsys):
    # the outputs before the multihomogeneity check
    for expr, nf in [("e1*e2", "e12"), ("x*e1*e2 - x*e12", "0"),
                     ("e1*e5*e2", "-(y*z^2)*e124 - (x*y*z)*e234 "
                                  "+ (x*w)*e345"),
                     ("e1*e5*e2 - e1*e2*e5", "-(2*y*z^2)*e124 "
                      "- (2*x*y*z)*e234 + (2*x*w)*e345")]:
        code, out, _ = run(capsys, ["reduce", FK, "--expr", expr])
        assert (code, out) == (0, nf)


def test_consecutive_commands_share_no_state(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run(capsys, ["assoc", FK, "--triple", "e1,e5,e2"])
    assert code == 1
    code, out, _ = run(capsys, ["assoc", FK])
    assert code == 1 and out.startswith("not associative: [e1,e2,e5] =")
    code, out, _ = run(capsys, ["assoc", FK, "--json"])
    assert json.loads(out)["witness"] == ["e1", "e2", "e5"]
    code, out, _ = run(capsys, ["assoc", FK])
    assert out.startswith("not associative: [e1,e2,e5] =")


def test_gb_script_export_is_emit_only(capsys):
    code, out, _ = run(capsys, ["gb", TAYLOR, "--emit-script"])
    assert code == 0
    assert "ring A = (0,x,y), (e1,e2,e12), Wp(V);" in out
    assert "std(I)" in out
    assert "e1*e2 - (x)*e12" in out
    # the exporter output is not our document language
    with pytest.raises(Exception):
        parse_document(out)


# -- constructions through the CLI --------------------------------------------


def test_taylor_emits_a_valid_document(capsys):
    code, out, _ = run(capsys, ["taylor", "--ring", "x,y",
                                "--ideal", "x^2,x*y"])
    assert code == 0
    doc = parse_document(out)
    alg = doc.algebra()
    assert alg.check().ok()
    ref = load_fixture("taylor_x2_xy").algebra()
    assert sorted(alg.complex.order) == sorted(ref.complex.order)


def test_cone_emits_a_valid_document(capsys):
    code, out, _ = run(capsys, ["cone", TAYLOR, "--expr", "y"])
    assert code == 0
    doc = parse_document(out)
    alg = doc.algebra()
    assert alg.check().ok()
    assert "E" in alg.complex.order


@pytest.mark.parametrize("prefix, message", [
    ("", "'' is not a name"), ("9", "'9' is not a name"),
    ("a b", "'a b' is not a name"),
    ("x", "'x' names a basis element like a ring variable")])
def test_cone_refuses_a_prefix_it_cannot_print_back(capsys, prefix, message):
    code, out, err = run(capsys, ["cone", TAYLOR, "--expr", "y",
                                  "--prefix", prefix])
    assert code == 2
    assert out == ""
    assert f"--prefix {message}" in err


def test_sym_reports_the_bigraded_dimensions(capsys):
    code, out, _ = run(capsys, ["sym", TAYLOR, "--truncate", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["problems"] == []
    assert payload["dims"]["3,2"] == 2       # e1*e12 and e2*e12
    assert payload["dims"]["2,2"] == 1       # e1*e2 only: odd squares vanish


@pytest.mark.parametrize("value,message", [
    ("x + y", "coefficient of 1 is x + y"),
    ("y", "coefficient of 1 is y"),
])
def test_sym_refuses_a_differential_that_is_not_multihomogeneous(
        tmp_path, capsys, value, message):
    doc = tmp_path / "inhomogeneous.mdg"
    doc.write_text("ring x, y;\ncomplex F {\n  basis 1: a mdeg(1, 0);\n"
                   f"  d a = {value};\n}}\n")
    code, out, err = run(capsys, ["sym", str(doc)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: d(a) is not multihomogeneous")
    assert message in err


def test_sym_refuses_a_differential_of_the_wrong_degree(tmp_path, capsys):
    doc = tmp_path / "wrong_degree.mdg"
    doc.write_text("ring x;\ncomplex F {\n  basis 1: a mdeg(1);\n"
                   "  basis 2: b mdeg(1);\n  d a = x;\n  d b = a + x;\n}\n")
    code, out, err = run(capsys, ["sym", str(doc)])
    assert (code, out) == (2, "")
    assert err == "error: d(b) has degrees [0, 1], expected 1"


def test_mult_names_the_complex_of_homology_and_sym(capsys):
    # fk_split holds T5 with the table nu first, then FK with mu (= fk)
    for argv in (["homology"], ["sym", "--truncate", "2"]):
        cmd, *flags = argv
        fk = run(capsys, [cmd, FK, *flags])
        assert run(capsys, [cmd, SPLIT, "--mult", "mu", *flags]) == fk
        t5 = run(capsys, [cmd, SPLIT, "--mult", "nu", *flags])
        assert t5 != fk
        # without --mult, the complex of the document's first table
        assert run(capsys, [cmd, SPLIT, *flags]) == t5
    assert "H_5=0" not in run(capsys, ["homology", SPLIT, "--mult", "mu"])[1]
    assert "S_2^1: dim 8" in run(capsys, ["sym", SPLIT, "--mult", "mu",
                                          "--truncate", "2"])[1]


def test_check_with_mult_checks_that_table_and_its_complex(
        capsys, monkeypatch, tmp_path):
    text = Path(SPLIT).read_text()
    assert "  e1*e2 = e12;\n  e1*e3 = e13;\n  e1*e4 = x*e14;" in text
    broken = tmp_path / "broken_nu.mdg"
    broken.write_text(text.replace("e1*e4 = x*e14;", "e1*e4 = e14;", 1))
    original = FreeComplex.check
    calls = []

    def counted(cx):
        calls.append(cx.name)
        return original(cx)

    monkeypatch.setattr(FreeComplex, "check", counted)
    for mult, complex_, code in [("mu", "FK", 0), ("nu", "T5", 1)]:
        calls.clear()
        got, out, _ = run(capsys, ["check", str(broken), "--mult", mult])
        assert (got, calls) == (code, [complex_])
        lines = out.splitlines()
        assert (lines == ["all checks passed"] if mult == "mu"
                else all(line.startswith("nu: ") for line in lines))
    assert run(capsys, ["check", str(broken)])[0] == 1


@pytest.mark.parametrize("cmd", ["check", "homology", "sym", "assoc", "gb"])
def test_an_unknown_mult_is_an_input_error(capsys, cmd):
    code, out, err = run(capsys, [cmd, SPLIT, "--mult", "nosuch"])
    assert (code, out) == (2, "")
    assert err == "error: no mult block named 'nosuch'"


@pytest.mark.parametrize("argv", [
    ["taylor", "--ring", "x,y", "--ideal", "x,y", "--json"],
    ["taylor", "--ring", "x,y", "--ideal", "x,y", "--mult", "mu"],
    ["cone", TAYLOR, "--expr", "y", "--json"],
    ["transport", SPLIT, "--mult", "mu"],
])
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_transport_recovers_the_stored_table(capsys):
    code, out, _ = run(capsys, ["transport", SPLIT])
    assert code == 0
    assert "matches" in out


def test_transport_orients_the_pair_whatever_the_block_order(tmp_path,
                                                             capsys):
    # iota maps out of the smaller complex, so moving the `map iota` block
    # after `map pi` changes nothing
    text = Path(SPLIT).read_text()
    start, cut = text.index("map iota:"), text.index("map pi:")
    swapped = text[:start] + text[cut:].rstrip("\n") + "\n\n" \
        + text[start:cut].rstrip("\n") + "\n"
    assert swapped.index("map pi:") < swapped.index("map iota:")
    doc = tmp_path / "swapped.mdg"
    doc.write_text(swapped)
    code, out, _ = run(capsys, ["transport", str(doc)])
    assert code == 0
    assert "matches" in out


def test_perturb_is_deterministic_per_seed(capsys):
    first = run(capsys, ["perturb", FK, "--seed", "7"])
    second = run(capsys, ["perturb", FK, "--seed", "7"])
    assert first == second
    assert first[0] == 0
    assert "chain-map/degree/Leibniz ok" in first[1]


@pytest.mark.parametrize("seed, entries", [(0, 2), (1, 0)])
def test_perturb_reports_the_entries_it_drew(capsys, seed, entries):
    # on fk, seed 1 finds no pair with a target in the right multidegree:
    # the table is unchanged, and the command says so on stderr
    code, out, err = run(capsys, ["perturb", FK, "--seed", str(seed),
                                  "--json"])
    assert code == 0
    assert json.loads(out)["entries"] == entries
    assert ("drew no homotopy entry" in err) == (entries == 0)
    code, out, err = run(capsys, ["perturb", FK, "--seed", str(seed)])
    assert out.startswith(f"seed {seed}: chain-map/degree/Leibniz ok;")
    assert ("drew no homotopy entry" in err) == (entries == 0)


@pytest.mark.parametrize("name", ["fk", "fm", "fa", "ex6"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perturb_respects_the_multigrading(capsys, name, seed):
    code, out, _ = run(capsys, ["perturb", str(fixture_path(name)),
                                "--seed", str(seed)])
    assert code == 0
    assert out.endswith("multigrading respected")


def test_a_perturbed_taylor_table_is_accepted_by_the_engine():
    # Taylor algebra of (x^2, xy, yz, z^2): 15 generators.  The perturbed
    # table is complete and not associative; its basis has
    # w + (n - w)(n - w + 1)/2 elements for n generators and w witnesses.
    from mdgkit.constructions import taylor_algebra
    from mdgkit.groebner import associativity_certificate
    from mdgkit.mdg import (MDGAlgebra, perturb_multiplication,
                            random_homotopy)
    from mdgkit.ring import Ring
    R = Ring(["x", "y", "z"])
    x, y, z = (R.var(v) for v in "xyz")
    alg = taylor_algebra(R, [x ** 2, x * y, y * z, z ** 2])
    h = random_homotopy(alg, 1)
    assert h.table
    algh = MDGAlgebra(alg.complex, perturb_multiplication(alg, h))
    assert algh.check().ok()
    report = associativity_certificate(algh)
    n, w = 15, len(report.witnesses)
    assert not report.associative and w == 2
    assert len(report.basis) == w + (n - w) * (n - w + 1) // 2


# -- canonical-form round trip ------------------------------------------------


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_documents_round_trip(name):
    text = fixture_path(name).read_text()
    once = format_document(parse_document(text))
    assert format_document(parse_document(once)) == once

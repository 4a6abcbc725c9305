import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weylcas
from weylcas.cli import main
from weylcas.hulls import MAX_TRUNCATION


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weyl_mul(capsys):
    code, out, _ = run(capsys, "weyl-mul", "d1", "x1")
    assert code == 0
    assert out.strip() == "x1*d1 + 1"


def test_weyl_lnf_rnf_round(capsys):
    code, out, _ = run(capsys, "weyl-rnf", "x1*d1")
    assert code == 0
    assert out.strip() == "d1*x1 - 1"
    code, out, _ = run(capsys, "weyl-lnf", "d1*x1 - 1")
    assert code == 0
    assert out.strip() == "x1*d1"


def test_weyl_star_example(capsys):
    code, out, _ = run(capsys, "weyl-star", "--ideal", "x1", "--op", "d1")
    assert code == 0
    assert out.strip() == "r = 2"


def test_weyl_star_json(capsys):
    code, out, _ = run(capsys, "weyl-star", "--ideal", "x1", "--op", "d1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["r"] == 2


def test_koszul_map(capsys):
    code, out, _ = run(capsys, "koszul-map", "--elems", "x1,x2", "--k", "2")
    assert code == 0
    assert out.strip() == "-x2 | x1"


def test_koszul_regcheck_witness(capsys):
    code, out, _ = run(capsys, "koszul-regcheck", "--elems", "x1,x1")
    assert code == 0
    assert "not regular" in out


def test_koszul_primeavoid_deterministic(capsys):
    code1, out1, _ = run(capsys, "koszul-primeavoid", "--prime", "x1,x2", "--g", "2")
    code2, out2, _ = run(capsys, "koszul-primeavoid", "--prime", "x1,x2", "--g", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_koszul_ext1(capsys):
    code, out, _ = run(capsys, "koszul-ext1", "--elems", "x1", "--model", "hull",
                       "--window", "-4..4", "--vars", "1")
    assert code == 0
    assert all(line.endswith(": 0") for line in out.strip().splitlines())


def test_artin_decompose(capsys):
    code, out, _ = run(capsys, "artin-decompose", "--ideal", "x1^3 - x1^2", "--vars", "1")
    assert code == 0
    assert "factors = 2" in out


def test_hull_mult_example(capsys):
    code, out, _ = run(capsys, "hull-mult", "--map", "y^2", "--maxideal", "y")
    assert code == 0
    assert "c = 2" in out


def test_hull_mult_json_serializes_extension(capsys):
    code, out, _ = run(capsys, "hull-mult", "--map", "y^2", "--maxideal", "y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extension"] == {
        "base_var": "x",
        "ext_var": "y",
        "structural_map": "y^2",
        "maximal_ideal": ["y"],
    }


def test_hull_mult_gaussian_point(capsys):
    code, out, _ = run(capsys, "hull-mult", "--map", "y^2", "--maxideal", "y^2+1")
    assert code == 0
    assert "c = 2" in out
    assert "nu = x + 1" in out


def test_hull_oracle(capsys):
    code, out, _ = run(capsys, "hull-oracle", "--map", "y^2", "--maxideal", "y",
                       "--kmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "dim(0 : nu^1) = 2",
        "dim(0 : nu^2) = 4",
        "dim(0 : nu^3) = 6",
    ]


def test_lc_piece_example(capsys):
    code, out, _ = run(capsys, "lc-piece", "--ideal", "x1,x2", "--i", "2",
                       "--degree", "-1,-1")
    assert code == 0
    assert out.strip() == "1"


def test_lc_mv_biprincipal(capsys):
    code, out, _ = run(capsys, "lc-mv", "--i-gens", "x1", "--j-gens", "x2",
                       "--window", "-2..2")
    assert code == 0
    assert "alternating sums vanish: True" in out
    assert "delta commutes with derivatives: True" in out


def test_lc_gamma_cyclic(capsys):
    code, out, _ = run(capsys, "lc-gamma", "--ideal", "x1",
                       "--quotient", "x1^2*x2", "--vars", "2")
    assert code == 0
    assert "x2" in out


def test_lc_gamma_localization(capsys):
    code, out, _ = run(capsys, "lc-gamma", "--ideal", "x1", "--invert", "x1",
                       "--mod-r", "--vars", "2", "--window", "-3..3")
    assert code == 0
    assert "derivative stable: True" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "weyl-lnf", "x1^-1")
    assert code == 2
    assert "error" in err


def test_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "weyl-lnf", "1/0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "division by zero" in err


@pytest.mark.parametrize("argv", [
    ["lc-piece", "--ideal", "x1,x2", "--i", "5", "--degree", "-1,-1"],
    ["lc-piece", "--ideal", "x1,x2", "--i", "-1", "--degree", "-1,-1"],
    ["lc-piece", "--ideal", "x1,x2", "--i", "2", "--degree", "-1,x"],
    ["lc-piece", "--ideal", "1", "--i", "0", "--degree", "-1"],
    ["lc-mv", "--i-gens", "x1", "--j-gens", "x2", "--window", "3..1"],
    ["lc-mv", "--i-gens", "x1,x2", "--j-gens", "x2", "--window", "3..1"],
    ["lc-gamma", "--ideal", "x1", "--invert", "x1", "--mod-r", "--vars", "2",
     "--window", "3..1"],
], ids=["i-above", "i-below", "degree-parse", "unit-ideal", "window-margin",
        "mv-empty-window", "gamma-empty-window"])
def test_lc_input_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["weyl-star", "--ideal", "x1", "--op", "d1", "--rmax", "0"],
    ["koszul-map", "--elems", "x1", "--k", "5"],
    ["hull-oracle", "--map", "y^2", "--maxideal", "y", "--truncate", "0"],
    ["hull-oracle", "--map", "y^2", "--maxideal", "y", "--kmax", "-1"],
    ["koszul-primeavoid", "--prime", "x1", "--g", "-1"],
], ids=["rmax-zero", "koszul-k-above", "truncate-zero", "kmax-negative", "g-negative"])
def test_out_of_range_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: " in err


@pytest.mark.parametrize("argv", [
    ["koszul-map", "--elems", "x1", "--inductive"],
    ["hull-oracle", "--map", "y^2", "--maxideal", "y", "--truncate", "1"],
    ["artin-decompose", "--ideal", "0", "--vars", "1"],
    ["weyl-star", "--ideal", "0", "--op", "d1"],
    ["hull-mult", "--map", "y^2", "--maxideal", "y^2"],
    ["hull-mult", "--relation", "x-y", "--maxideal", "y"],
    ["koszul-ext1", "--elems", "x1+1"],
    ["lc-gamma", "--ideal", "0", "--quotient", "x1"],
    ["lc-gamma", "--ideal", "x1", "--invert", "x1,x2", "--window", "0..0"],
], ids=["inductive-one-element", "truncate-below-bound", "not-zero-dimensional",
        "star-zero-ideal", "not-maximal", "relation-not-monic", "inhomogeneous-element",
        "colon-by-zero", "invert-two-monomials"])
def test_refused_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("kmax", ["61", "150", "400"])
def test_hull_oracle_above_the_truncation_limit_exits_2(capsys, kmax):
    # --kmax 400 once ran for more than a minute; depth k needs truncation 2k here
    code, out, err = run(capsys, "hull-oracle", "--map", "y^2", "--maxideal", "y", "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert err == f"error: truncation level {2 * int(kmax)} outside 1..{MAX_TRUNCATION}\n"
    code, out, err = run(capsys, "hull-oracle", "--map", "y^2", "--maxideal", "y", "--kmax", "3",
                         "--truncate", str(2 * int(kmax)))
    assert (code, out) == (2, "")
    assert f"outside 1..{MAX_TRUNCATION}" in err


@pytest.mark.parametrize("argv", [
    ["koszul-primeavoid", "--prime", "x1", "--g", "2"],
    ["weyl-star", "--ideal", "x1", "--op", "d1^3", "--rmax", "2"],
], ids=["primeavoid-exhausted", "star-bound-not-found"])
def test_exhausted_search_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "weyl-lnf", "x1", "--frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["artin-decompose", "--ideal", "x1^2-1", "--order", "lex"],
    ["lc-piece", "--ideal", "x1", "--i", "1", "--degree", "-1", "--seed", "3"],
    ["weyl-star", "--ideal", "x1", "--op", "d1", "--order", "lex"],
    ["koszul-regcheck", "--elems", "x1,x2", "--seed", "3"],
    ["hull-mult", "--map", "y^2", "--maxideal", "y", "--order", "lex"],
], ids=["artin-order", "lc-piece-seed", "weyl-star-order", "regcheck-seed", "hull-order"])
def test_flag_unread_by_the_command_is_rejected(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv,expected", [
    (["weyl-mul", "x1", "x2", "--order", "lex"], "x1*x2"),
    (["koszul-map", "--elems", "x1,x2", "--order", "lex", "--k", "1"], "x1\nx2"),
    (["artin-decompose", "--ideal", "x1^2-1", "--seed", "3"], "dim = 2, factors = 2"),
    (["koszul-primeavoid", "--prime", "x1,x2", "--g", "2", "--seed", "1"], "x_1 = "),
], ids=["weyl-mul-order", "koszul-map-order", "artin-seed", "primeavoid-seed"])
def test_flag_read_by_the_command_is_accepted(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert expected in out

def test_undeclared_variable_is_usage_error(capsys):
    code, _, err = run(capsys, "weyl-lnf", "z + 1")
    assert code == 2


def test_cli_output_round_trips(capsys):
    code, out, _ = run(capsys, "weyl-mul", "d1^2", "x1^2*d2")
    assert code == 0
    printed = out.strip()
    code2, out2, _ = run(capsys, "weyl-lnf", printed)
    assert code2 == 0
    assert out2.strip() == printed


def test_determinism_byte_identical(capsys):
    args = ("artin-decompose", "--ideal", "x1^2-1", "--vars", "1", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_closed_stdout_exits_quietly():
    # the reader of standard output is gone before anything is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(weylcas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylcas", "weyl-mul", "d1^3", "x1^3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


def test_artin_decompose_huge_constant(capsys):
    # trial division over the divisors of 10^20 + 1 took about 20 minutes
    code, out, _ = run(capsys, "artin-decompose", "--ideal", "x1^2+100000000000000000001")
    assert code == 0
    assert "dim = 2, factors = 1" in out
    assert "factor 1: dim 2, residue degree 2" in out


def test_artin_decompose_refuses_exponential_recombination(capsys):
    # degree 64 with 32 factors modulo every prime: recombination would try
    # about 2^31 subsets
    from test_univar import swinnerton_dyer

    f = swinnerton_dyer([2, 3, 5, 7, 11, 13])
    ideal = " + ".join(f"({c})*x1^{i}" for i, c in enumerate(f) if c)
    start = time.perf_counter()
    code, out, err = run(capsys, "artin-decompose", "--ideal", ideal, "--vars", "1")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: factoring a polynomial of degree 64")
    assert "recombination subsets" in err


def test_artin_decompose_degree_five_product_json(capsys):
    code, out, _ = run(capsys, "artin-decompose", "--ideal", "(x1^2+1)*(x1^3-2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert sorted(f["residue_degree"] for f in payload["factors"]) == [2, 3]
    assert sorted(f["dim"] for f in payload["factors"]) == [2, 3]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_vars_out_of_range_is_usage_error(capsys, count):
    code, out, err = run(capsys, "weyl-lnf", "x1*d1", "--vars", count)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ")
    assert "argument --vars: expected a positive number of variables" in err

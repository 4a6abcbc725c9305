import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylcas
from weylcas.cli import main


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


@pytest.mark.parametrize("argv", [
    ["lc-piece", "--ideal", "x1,x2", "--i", "5", "--degree", "-1,-1"],
    ["lc-piece", "--ideal", "x1,x2", "--i", "-1", "--degree", "-1,-1"],
    ["lc-piece", "--ideal", "x1,x2", "--i", "2", "--degree", "-1,x"],
    ["lc-piece", "--ideal", "1", "--i", "0", "--degree", "-1"],
    ["lc-mv", "--i-gens", "x1", "--j-gens", "x2", "--window", "0..0"],
], ids=["i-above", "i-below", "degree-parse", "unit-ideal", "window-margin"])
def test_lc_input_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "weyl-lnf", "x1", "--frobnicate")
    assert code == 2


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


def test_artin_decompose_degree_five_product_json(capsys):
    code, out, _ = run(capsys, "artin-decompose", "--ideal", "(x1^2+1)*(x1^3-2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 5
    assert sorted(f["residue_degree"] for f in payload["factors"]) == [2, 3]
    assert sorted(f["dim"] for f in payload["factors"]) == [2, 3]

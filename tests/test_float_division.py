"""No true division in `src/weylcas` can make a float.

A stored `SparsePoly` coefficient may be a Python int, and int / int is a
float, which the exact arithmetic refuses.  So every `/` in the library
must divide a `Fraction(...)`: the test parses `src/weylcas/*.py` and fails
on any `/` (or `/=`) whose left operand is not a `Fraction(...)` call.
Strings, such as error messages and docstrings, are not division nodes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylcas"


def _is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def float_divisions(path):
    """(file name, line, source) of each true division in path that does
    not divide a Fraction(...) call."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        (path.name, node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and not _is_fraction_call(node.left))
        or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div))
    ]


def test_every_true_division_in_src_divides_a_fraction():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in float_divisions(path)]
    assert found == []


def test_the_guard_flags_int_and_in_place_division(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""a / b in a docstring"""\n'
                    "q = 1 / c\n"
                    "r = Fraction(1) / c\n"
                    "s = Fraction(a, b)\n"
                    "t = -c / d ** 2\n"
                    "u /= 2\n")
    assert sorted(line for _, line, _ in float_divisions(path)) == [2, 5, 6]

import random
from fractions import Fraction

import pytest

from weylcas.ore import DiffOp, OreRing
from weylcas.parser import (
    ParseError,
    diffop_to_str,
    parse_operator,
    parse_polynomial,
)
from weylcas.poly import SparsePoly

from oracles import old_parse_operator, old_parse_polynomial

W2 = OreRing.weyl(("x1", "x2"))


def test_parse_simple_polynomial():
    p = parse_polynomial("(x+1)^2", ("x",))
    x = SparsePoly.variable(("x",), 0)
    assert p == x ** 2 + 2 * x + 1


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*x + 3", ("x",))
    x = SparsePoly.variable(("x",), 0)
    assert p == Fraction(1, 2) * x + 3


def test_parse_leading_minus():
    p = parse_polynomial("-x + 1", ("x",))
    x = SparsePoly.variable(("x",), 0)
    assert p == 1 - x


def test_negative_power_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^-1", ("x",))


def test_undeclared_identifier():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ("x",))
    assert "z" in str(err.value)


def test_syntax_error_has_span():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ", ("x",))
    assert err.value.span == (4, 4)


def test_zero_denominator_has_span():
    with pytest.raises(ParseError) as err:
        parse_operator("d1 + 3/0*x1", W2)
    assert "division by zero" in str(err.value)
    assert err.value.span == (5, 8)


def test_operator_commutation_through_parser():
    op = parse_operator("d1*x1", W2)
    x1 = SparsePoly.variable(W2.vars, 0)
    expected = DiffOp(W2, {(1, 0): x1, (0, 0): SparsePoly.one(W2.vars)}, "left")
    assert op == expected


def test_print_left_normal_form():
    op = parse_operator("d1*x1", W2)
    assert diffop_to_str(op) == "x1*d1 + 1"


def test_print_right_normal_form():
    op = parse_operator("x1*d1", W2).to_right()
    assert diffop_to_str(op) == "d1*x1 - 1"


def test_round_trip_fixed_cases():
    cases = [
        "x1*d1 + 1",
        "(x1^2 + x2)*d1^2*d2 - 3*d2 + x2",
        "d1^3 - 1/2*x1",
        "-d1 + x2^4",
    ]
    for text in cases:
        op = parse_operator(text, W2)
        assert parse_operator(diffop_to_str(op), W2) == op


def test_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        terms = {}
        for _ in range(3):
            alpha = (rng.randrange(3), rng.randrange(3))
            coeff = {}
            for _ in range(2):
                e = (rng.randrange(3), rng.randrange(3))
                coeff[e] = coeff.get(e, 0) + Fraction(rng.randint(-4, 4))
            p = SparsePoly(W2.vars, coeff)
            if not p.is_zero():
                terms[alpha] = p
        op = DiffOp(W2, terms, "left")
        assert parse_operator(diffop_to_str(op), W2) == op
        right = op.to_right()
        assert parse_operator(diffop_to_str(right), W2) == op


def test_parse_print_parse_fixed_point():
    text = "x1*d1 + 1"
    op1 = parse_operator(text, W2)
    printed = diffop_to_str(op1)
    op2 = parse_operator(printed, W2)
    assert diffop_to_str(op2) == printed


def test_ore_variable_parsing():
    ring = OreRing.differential_polynomial(("x",), [SparsePoly.one(("x",))])
    op = parse_operator("X*x", ring)
    x = SparsePoly.variable(("x",), 0)
    assert op == DiffOp(ring, {(1,): x, (0,): SparsePoly.one(("x",))}, "left")


def test_polynomial_rejects_operators():
    with pytest.raises(ParseError):
        parse_polynomial("d1*x1", ("x1",))


X = ("x",)
CORPUS_RINGS = [
    OreRing.weyl(("x1",)),
    W2,
    OreRing.weyl(("x1", "x2", "x3")),
    OreRing.differential_polynomial(X, [SparsePoly.one(X)]),
    OreRing.differential_polynomial(X, [SparsePoly.variable(X, 0) ** 2]),
]


def _random_text(rng, idents, depth=0) -> str:
    """An expression of the grammar: leading minus, nested parentheses,
    powers 0..4 and rational literals over the given identifiers."""
    def atom():
        k = rng.randrange(4 if depth < 2 else 3)
        if k == 0:
            return str(rng.randint(0, 9)) if rng.random() < 0.6 else \
                f"{rng.randint(0, 7)}/{rng.randint(1, 6)}"
        if k < 3:
            return rng.choice(idents)
        return f"({_random_text(rng, idents, depth + 1)})"

    def factor():
        a = atom()
        return f"{a}^{rng.randrange(5)}" if rng.random() < 0.3 else a

    def term():
        return "*".join(factor() for _ in range(rng.randint(1, 3 - depth)))

    out = ("-" if rng.random() < 0.3 else "") + term()
    for _ in range(rng.randrange(3 - depth)):
        out += rng.choice((" + ", " - ")) + term()
    return out


FIXED_OPERATORS = {
    1: ["d1*x1^2*d2 - (x1+1/2)^3*d1", "-(d1 - x1)^4", "x2*d2*x2^0*d1^3*(1/3 - x1)"],
    3: ["X*x - x*X", "-(X + x)^3*X"],
    4: ["X*x^2*X - 1/2", "((x*X)^2 - X)^2"],
}


@pytest.mark.parametrize("index", range(len(CORPUS_RINGS)),
                         ids=["weyl1", "weyl2", "weyl3", "ore-1", "ore-x^2"])
def test_parse_operator_matches_two_pass_parser(index):
    ring = CORPUS_RINGS[index]
    rng = random.Random(20 + index)
    idents = ring.vars + ring.op_names
    texts = FIXED_OPERATORS.get(index, []) + [_random_text(rng, idents) for _ in range(150)]
    for text in texts:
        new, old = parse_operator(text, ring), old_parse_operator(text, ring)
        assert new.form == old.form == "left", text
        assert new.terms == old.terms, text


@pytest.mark.parametrize("index", range(len(CORPUS_RINGS)),
                         ids=["weyl1", "weyl2", "weyl3", "ore-1", "ore-x^2"])
def test_operator_power_matches_repeated_product(index):
    ring = CORPUS_RINGS[index]
    v, d = ring.vars[0], ring.op_names[-1]
    op, x = parse_operator(d, ring), parse_operator(v, ring)
    for e in range(13):
        for text, expected in ((f"{d}^{e}", op ** e), (f"({d})^{e}", op ** e),
                               (f"{v}^2*{d}^{e}", x ** 2 * op ** e)):
            got = parse_operator(text, ring)
            assert got.form == expected.form == "left", text
            assert got.terms == expected.terms, text


def test_parse_polynomial_matches_two_pass_parser():
    rng = random.Random(21)
    for vs in [X, ("x", "y"), ("x1", "x2", "x3")]:
        for _ in range(100):
            text = _random_text(rng, vs)
            new, old = parse_polynomial(text, vs), old_parse_polynomial(text, vs)
            assert new.vars == old.vars, text
            assert new.terms == old.terms, text


@pytest.mark.parametrize("text", ["x1^-1", "x1 + ", "(x1", "x1)", "z*d1", "d1^1/2", "", "x1 $ 2"])
def test_parse_errors_match_two_pass_parser(text):
    with pytest.raises(ParseError) as new:
        parse_operator(text, W2)
    with pytest.raises(ParseError) as old:
        old_parse_operator(text, W2)
    assert str(new.value) == str(old.value)
    assert new.value.span == old.value.span

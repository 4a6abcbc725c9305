import random
from fractions import Fraction
from math import comb, factorial

import pytest

from weylcas.acceptance import _rewrite_normal_form
from weylcas.groebner import Ideal
from weylcas.ore import (
    DiffOp,
    LocalizedFraction,
    OreRing,
    StarBoundNotFoundError,
    in_left_ideal_si,
    verify_star,
)
from weylcas.poly import SparsePoly

W1 = OreRing.weyl(("x",))
x = SparsePoly.variable(("x",), 0)
d = DiffOp.operator(W1, 0)
X = DiffOp.from_poly(W1, x)


def op(ring, terms):
    return DiffOp(ring, terms, "left")


def assert_same_form(s, t):
    # == compares left forms, so it cannot see a wrong right normal form
    assert s.form == t.form
    assert s.terms == t.terms


def test_defining_relation():
    # d*x = x*d + 1
    assert d * X == op(W1, {(1,): x, (0,): SparsePoly.one(("x",))})


def test_euler_operator_square():
    e = X * d
    assert e * e == op(W1, {(2,): x * x, (1,): x})


def test_d_squared_times_x():
    assert d * d * X == op(W1, {(2,): x, (1,): SparsePoly.constant(("x",), 2)})


def test_to_right_nf_examples():
    one = SparsePoly.one(("x",))
    # x*d -> d*x - 1
    r = (X * d).to_right()
    assert r.form == "right"
    assert r.terms == {(1,): x, (0,): -one}
    # pure polynomial unchanged
    p = DiffOp.from_poly(W1, x ** 3 + x)
    assert p.to_right().terms == p.terms
    # x*d^2 -> d^2*x - 2*d
    r2 = (X * d * d).to_right()
    assert r2.terms == {(2,): x, (1,): -2 * one}


def test_to_left_nf_examples():
    one = SparsePoly.one(("x",))
    # d*x as a right-form element: x d + 1 on the left
    s = DiffOp(W1, {(1,): x}, "right")
    assert s.to_left().terms == {(1,): x, (0,): one}
    # d^2 x^2 -> x^2 d^2 + 4 x d + 2
    s2 = DiffOp(W1, {(2,): x * x}, "right")
    assert s2.to_left().terms == {(2,): x * x, (1,): 4 * x, (0,): 2 * one}


def random_poly(rng, variables, degree, nterms):
    terms = {}
    n = len(variables)
    for _ in range(nterms):
        e = [0] * n
        budget = rng.randrange(degree + 1)
        for _ in range(budget):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(rng.randrange(-5, 6))
    return SparsePoly(variables, terms)


def random_diffop(rng, ring, order, degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        alpha = [0] * ring.n_ops
        for _ in range(rng.randrange(order + 1)):
            alpha[rng.randrange(ring.n_ops)] += 1
        c = random_poly(rng, ring.vars, degree, 2)
        if not c.is_zero():
            terms[tuple(alpha)] = c
    return DiffOp(ring, terms, "left")


def test_round_trip_random():
    rng = random.Random(7)
    ring = OreRing.weyl(("x", "y"))
    for _ in range(60):
        s = random_diffop(rng, ring, 4, 4)
        assert s.to_right().to_left() == s
        assert s.to_right().to_left().terms == s.to_left().terms


def test_associativity_random():
    rng = random.Random(11)
    ring = OreRing.weyl(("x", "y"))
    for _ in range(15):
        a = random_diffop(rng, ring, 2, 2, 2)
        b = random_diffop(rng, ring, 2, 2, 2)
        c = random_diffop(rng, ring, 2, 2, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_weyl_commutation_closed_form():
    rng = random.Random(3)
    for m in range(1, 7):
        a = DiffOp.from_poly(W1, random_poly(rng, ("x",), 4, 3))
        lhs = (d ** m) * a
        assert_same_form(lhs, _rewrite_normal_form([DiffOp.operator(W1, 0, m), a]))


def test_high_order_product_closed_form():
    # d^22 x^22 = sum_i C(22,i)^2 i! x^(22-i) d^(22-i); the worklist took minutes
    n = 22
    expected = {(n - i,): SparsePoly.monomial(("x",), (n - i,), comb(n, i) ** 2 * factorial(i))
                for i in range(n + 1)}
    prod = DiffOp.operator(W1, 0, n) * DiffOp.from_poly(W1, x ** n)
    assert prod.form == "left"
    assert prod.terms == expected


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_and_right_forms_match_rewrite_rule(nvars):
    rng = random.Random(29 + nvars)
    ring = OreRing.weyl(tuple(f"x{i + 1}" for i in range(nvars)))
    for _ in range(12):
        a = random_diffop(rng, ring, 3, 3, 2)
        b = random_diffop(rng, ring, 3, 3, 2)
        assert_same_form(a * b, _rewrite_normal_form([a, b]))
        assert_same_form(a.to_right(), _rewrite_normal_form([a], "right"))
        r = a.to_right()
        assert_same_form(r.to_left(), _rewrite_normal_form([r]))


def ore_ring_ddx():
    vars_ = ("x",)
    return OreRing.differential_polynomial(vars_, [SparsePoly.one(vars_)])


def ore_ring_x2ddx():
    vars_ = ("x",)
    xx = SparsePoly.variable(vars_, 0)
    return OreRing.differential_polynomial(vars_, [xx * xx])


@pytest.mark.parametrize("ring_maker", [ore_ring_ddx, ore_ring_x2ddx])
def test_ore_power_formula(ring_maker):
    ring = ring_maker()
    rng = random.Random(5)
    Xop = DiffOp.operator(ring, 0)
    for n in range(1, 6):
        a = DiffOp.from_poly(ring, random_poly(rng, ("x",), 4, 3))
        lhs = (Xop ** n) * a
        assert_same_form(lhs, _rewrite_normal_form([DiffOp.operator(ring, 0, n), a]))


@pytest.mark.parametrize("ring_maker", [ore_ring_ddx, ore_ring_x2ddx])
def test_ore_right_formula(ring_maker):
    # b X^n = sum (-1)^i C(n,i) X^(n-i) delta^i(b)
    ring = ring_maker()
    rng = random.Random(9)
    Xop = DiffOp.operator(ring, 0)
    for n in range(1, 6):
        b = DiffOp.from_poly(ring, random_poly(rng, ("x",), 4, 3))
        lhs = (b * Xop ** n).to_right()
        assert_same_form(lhs, _rewrite_normal_form([b, DiffOp.operator(ring, 0, n)], "right"))


def test_ore_single_step():
    ring = ore_ring_ddx()
    Xop = DiffOp.operator(ring, 0)
    xx = SparsePoly.variable(("x",), 0)
    prod = Xop * DiffOp.from_poly(ring, xx)
    assert prod.terms == {(1,): xx, (0,): SparsePoly.one(("x",))}


def test_apply_polynomials():
    assert d.apply(x ** 2) == 2 * x
    assert (X * d).apply(x ** 3) == 3 * x ** 3


def test_apply_fraction_quotient_rule():
    one = SparsePoly.one(("x",))
    inv_x = LocalizedFraction(one, x, 1)
    out = d.apply(inv_x)
    assert out == LocalizedFraction(-one, x, 2)


def test_apply_module_axiom():
    rng = random.Random(13)
    ring = OreRing.weyl(("x", "y"))
    for _ in range(10):
        s = random_diffop(rng, ring, 2, 2, 2)
        t = random_diffop(rng, ring, 2, 2, 2)
        m = random_poly(rng, ring.vars, 3, 3)
        assert (s * t).apply(m) == s.apply(t.apply(m))


def test_apply_ore_module_axiom():
    ring = ore_ring_ddx()
    rng = random.Random(17)
    for _ in range(10):
        s = random_diffop(rng, ring, 3, 3, 2)
        t = random_diffop(rng, ring, 3, 3, 2)
        m = random_poly(rng, ring.vars, 3, 3)
        assert (s * t).apply(m) == s.apply(t.apply(m))


def test_fraction_normalization():
    one = SparsePoly.one(("x",))
    # x^2 / x^1 -> x
    f = LocalizedFraction(x * x, x, 1)
    assert f.power == 0 and f.num == x
    # univariate gcd cancellation with rebase
    g = LocalizedFraction(x ** 2 - 1, (x - 1) * (x + 1), 1)
    assert g.power == 0 and g.num == one


def test_fraction_cross_multiplication_equality():
    XYv = ("x", "y")
    xx = SparsePoly.variable(XYv, 0)
    yy = SparsePoly.variable(XYv, 1)
    a = LocalizedFraction(xx * yy, xx * (xx + yy), 1)
    b = LocalizedFraction(yy * xx ** 2, xx ** 2 * (xx + yy), 1)
    assert a == b


def test_si_membership():
    Xv = ("x",)
    I = Ideal(Xv, [x])
    assert in_left_ideal_si(DiffOp.from_poly(W1, x), I)
    assert not in_left_ideal_si(X * d, I)
    assert in_left_ideal_si(DiffOp.from_poly(W1, x * x) * d, I)


def test_verify_star_order_zero():
    I = Ideal(("x",), [x])
    s = DiffOp.from_poly(W1, x ** 2 + 1)
    assert verify_star(I, s, 3) == 1


def test_verify_star_first_derivative():
    I = Ideal(("x",), [x])
    assert verify_star(I, d, 5) == 2


def test_verify_star_second_derivative_attains_bound():
    I = Ideal(("x",), [x])
    assert verify_star(I, d * d, 5) == 3


def test_verify_star_not_found():
    I = Ideal(("x",), [x])
    with pytest.raises(StarBoundNotFoundError):
        verify_star(I, d * d, 1)


def test_star_bound_random():
    rng = random.Random(23)
    ring = OreRing.weyl(("x", "y"))
    Iy = Ideal(ring.vars, [SparsePoly.variable(ring.vars, 0)])
    for _ in range(8):
        s = random_diffop(rng, ring, 3, 2, 2)
        if s.is_zero():
            continue
        m = s.op_order()
        assert verify_star(Iy, s, m + 1) <= m + 1

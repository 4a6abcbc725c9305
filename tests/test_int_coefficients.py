"""Integral coefficients stay Python ints, with the same values as before.

`SparsePoly` stores a coefficient as an int when it is integral and as a
Fraction otherwise.  Each seeded case below checks polynomial arithmetic,
operator products, normal forms and actions, and the Groebner outputs by
value against the Fraction loops in `oracles`, on integer and on rational
inputs.  On integer inputs every coefficient these operations store must
be an int: a Fraction there would mean the fast path has silently gone.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from oracles import (
    old_buchberger,
    old_divide_exact,
    old_partial,
    old_poly_add,
    old_poly_mul,
    old_reduce_poly,
)

from weylcas.groebner import buchberger, divide_exact, reduce_poly
from weylcas.ore import DiffOp, OreRing
from weylcas.poly import GREVLEX, LEX, SparsePoly

VARS = ("x", "y")
KINDS = ("integer", "rational")


def _coefficient(rng, kind):
    n = rng.choice([-3, -2, -1, 1, 2, 3, 5, 12])
    return n if kind == "integer" else Fraction(n, rng.choice([1, 2, 3, 4, 6]))


def _poly(rng, kind, terms=3, degree=3):
    exps = [tuple(rng.randint(0, degree) for _ in VARS) for _ in range(terms)]
    return SparsePoly(VARS, {e: _coefficient(rng, kind) for e in exps})


def _all_ints(p):
    return all(type(c) is int for c in p.terms.values())


def _stored_rule(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def _ring(rng, kind, ore):
    if not ore:
        return OreRing.weyl(VARS)
    return OreRing.differential_polynomial(VARS, [_poly(rng, kind, 2, 1) for _ in VARS])


def _op(rng, kind, ring, terms=2, order=2):
    alphas = [tuple(rng.randint(0, order) for _ in range(ring.n_ops)) for _ in range(terms)]
    return DiffOp(ring, {a: _poly(rng, kind, 2, 2) for a in alphas})


def _ref_delta(ring, k, t):
    """The derivation of operator k on a Fraction term map: the partial
    derivative, or sum_i (d t / d x_i) * delta(x_i) for the Ore variable."""
    if ring.kind == "weyl":
        return old_partial(t, k)
    out = {}
    for i, d in enumerate(ring.delta_on_vars):
        out = old_poly_add(out, old_poly_mul(old_partial(t, i), d.terms))
    return out


def _ref_delta_power(ring, alpha, t):
    for k, a in enumerate(alpha):
        for _ in range(a):
            t = _ref_delta(ring, k, t)
    return t


def _ref_product(ring, a, b):
    """The left form of a * b as {alpha: Fraction term map}, by
    op^alpha * psi = sum_gamma C(alpha, gamma) delta^(alpha - gamma)(psi) op^gamma."""
    one = (0,) * len(ring.vars)
    out = {}
    for alpha, phi in a.to_left().terms.items():
        for beta, psi in b.to_left().terms.items():
            for gamma in product(*[range(k + 1) for k in alpha]):
                c = 1
                for k, g in zip(alpha, gamma):
                    c *= comb(k, g)
                rest = tuple(k - g for k, g in zip(alpha, gamma))
                t = old_poly_mul(old_poly_mul(phi.terms, {one: c}),
                                 _ref_delta_power(ring, rest, psi.terms))
                key = tuple(g + e for g, e in zip(gamma, beta))
                out[key] = old_poly_add(out.get(key, {}), t)
    return {k: v for k, v in out.items() if v}


def _ref_apply(op, m):
    out = {}
    for alpha, phi in op.to_left().terms.items():
        out = old_poly_add(out, old_poly_mul(phi.terms, _ref_delta_power(op.ring, alpha, m.terms)))
    return out


def _op_terms(op):
    return {alpha: c.terms for alpha, c in op.terms.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_poly_arithmetic_matches_the_fraction_loops(kind):
    rng = random.Random(17 if kind == "integer" else 18)
    for _ in range(60):
        p, q = _poly(rng, kind), _poly(rng, kind)
        i = rng.randrange(len(VARS))
        results = {
            "add": (p + q, old_poly_add(p.terms, q.terms)),
            "sub": (p - q, old_poly_add(p.terms, old_poly_mul(q.terms, {(0, 0): -1}))),
            "mul": (p * q, old_poly_mul(p.terms, q.terms)),
            "partial": (p.partial(i), old_partial(p.terms, i)),
        }
        for name, (got, want) in results.items():
            assert got.terms == want, name
            if kind == "integer":
                assert _all_ints(got), name


@pytest.mark.parametrize("ore", [False, True], ids=["weyl", "ore"])
@pytest.mark.parametrize("kind", KINDS)
def test_operators_match_the_fraction_loops(kind, ore):
    rng = random.Random(f"{kind}-{ore}")
    for _ in range(25):
        ring = _ring(rng, kind, ore)
        a, b = _op(rng, kind, ring), _op(rng, kind, ring)
        m = _poly(rng, kind)
        ab = a * b
        right = ab.to_right()
        back = DiffOp(ring, right.terms, "right").to_left()
        applied = a.apply(m)
        assert _op_terms(ab) == _ref_product(ring, a, b)
        assert _op_terms(back) == _op_terms(ab)
        assert applied.terms == _ref_apply(a, m)
        if kind == "integer":
            for op in (ab, right, back):
                assert all(_all_ints(c) for c in op.terms.values())
            assert _all_ints(applied)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("kind", KINDS)
def test_groebner_outputs_match_the_fraction_kernel(kind, order):
    rng = random.Random(31 if kind == "integer" else 32)
    for _ in range(15):
        gens = [_poly(rng, kind, 3, 2) for _ in range(2)]
        gb = buchberger(gens, order)
        assert gb == old_buchberger(gens, order)
        f = _poly(rng, kind, 4, 3)
        r = reduce_poly(f, gb, order)
        assert r == old_reduce_poly(f, gb, order)
        g = _poly(rng, kind, 2, 2)
        q = divide_exact(f * g, g)
        assert q == old_divide_exact(f * g, g, order) == f
        assert divide_exact(f * g + 1, g) == old_divide_exact(f * g + 1, g, order)
        for p in [*gb, r, q]:
            assert _stored_rule(p)
        if kind == "integer":
            assert _all_ints(q)

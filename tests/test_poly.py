import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcas.poly import GREVLEX, LEX, SparsePoly, TermOrder

XY = ("x", "y")


def P(terms):
    return SparsePoly(XY, terms)


x = SparsePoly.variable(XY, 0)
y = SparsePoly.variable(XY, 1)
one = SparsePoly.one(XY)


def test_difference_of_squares():
    assert (x + one) * (x - one) == x * x - one


def test_multiply_by_zero():
    p = x * y + 3 * x
    assert p * SparsePoly.zero(XY) == SparsePoly.zero(XY)
    assert (p * 0).is_zero()


def test_binomial_square():
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_canonical_no_zero_terms():
    p = x - x
    assert p.terms == {}
    q = P({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in q.terms


def test_public_constructor_still_checks_every_term():
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        P({(1,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        P({(1, -1): 1})
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError, match="coefficient must be int or Fraction"):
            P({(1, 0): bad})
    # sums, products and negatives build clean term maps without the checks
    p = (x + y) * (x - 2 * y) - x * x
    assert all(type(c) is int and c for c in p.terms.values())
    assert p == P({(1, 1): -1, (0, 2): -2}) and -p == P({(1, 1): 1, (0, 2): 2})
    assert p * Fraction(1, 2) == P({(1, 1): Fraction(-1, 2), (0, 2): -1})


def test_var_mismatch_raises():
    z = SparsePoly.variable(("z",), 0)
    with pytest.raises(ValueError):
        x + z
    with pytest.raises(ValueError):
        x * z


def test_partial_derivatives():
    assert (x ** 2).partial(0) == 2 * x
    assert (y ** 3).partial(0).is_zero()
    assert (x ** 2 * y + x).partial(0) == 2 * x * y + one


def test_leibniz_rule_specific():
    p = x ** 2 + y
    q = x * y - 1
    lhs = (p * q).partial(0)
    assert lhs == p.partial(0) * q + p * q.partial(0)


def test_grevlex_vs_lex_leading_term():
    p = x * y ** 2 + x ** 2
    # grevlex: x*y^2 (degree 3) beats x^2
    assert p.leading_term(GREVLEX)[0] == (1, 2)
    # lex with x > y: x^2 beats x*y^2
    assert p.leading_term(LEX)[0] == (2, 0)


def test_lex_priority_permutation():
    YX = ("y", "x")  # the ring's variable order makes y > x
    p = SparsePoly.variable(YX, 1) ** 3 + SparsePoly.variable(YX, 0)
    assert p.leading_term(LEX)[0] == (1, 0)


def _nested_key(order, e):
    """The nested sort key TermOrder used before its keys were flattened."""
    if order is LEX:
        return tuple(e)
    return (sum(e), tuple(-x for x in reversed(e)))


def _nested_elim_key(e):
    """The nested key of the block order that eliminates the first variable."""
    front, back = e[:1], e[1:]
    return (sum(front), tuple(-x for x in reversed(front)),
            sum(back), tuple(-x for x in reversed(back)))


def test_flat_keys_sort_like_nested_keys():
    from itertools import product

    from weylcas.groebner import _TAG_ELIMINATION

    orders = [
        (GREVLEX, lambda e: _nested_key(GREVLEX, e)),
        (LEX, lambda e: _nested_key(LEX, e)),
        (_TAG_ELIMINATION, _nested_elim_key),
    ]
    for n in (2, 3, 4):
        exps = [e for e in product(range(5), repeat=n) if sum(e) <= 4]
        for order, nested in orders:
            key = order.key_for(n)
            flat = [key(e) for e in exps]
            assert all(type(k) is tuple and all(type(x) is int for x in k) for k in flat)
            assert sorted(exps, key=key) == sorted(exps, key=nested), (order, n)
            # no two monomials share a key: the order is total
            assert len(set(flat)) == len(exps)


def test_flat_key_shapes():
    from weylcas.groebner import _TAG_ELIMINATION

    # one entry per weight row: the sum of the exponents the row names
    assert GREVLEX.key_for(3)((1, 2, 3)) == (6, 3, 1)
    assert LEX.key_for(3)((1, 2, 3)) == (1, 2, 3)
    assert _TAG_ELIMINATION.key_for(3)((1, 2, 3)) == (1, 5, 2)


def test_keys_are_the_row_sums():
    from itertools import product

    from weylcas.groebner import _TAG_ELIMINATION

    # one-variable, longer and empty rows alike, for any variable count
    padded = TermOrder("lex with a zero row", lambda n: [()] + [(i,) for i in range(n)])
    for order in (GREVLEX, LEX, _TAG_ELIMINATION, padded):
        for n in (1, 2, 3, 4):
            rows = order.rows(n)
            for e in product(range(3), repeat=n):
                assert order.key_for(n)(e) == tuple(sum(e[i] for i in row) for row in rows)


def test_library_orders_pass_the_row_check():
    from weylcas.groebner import _TAG_ELIMINATION

    for order in (GREVLEX, LEX, _TAG_ELIMINATION):
        for n in range(1, 7):
            assert len(order.rows(n)) >= 1


@pytest.mark.parametrize("rule,match", [
    # one total-degree row ties x with y: buchberger([x - y, xy - 1]) used
    # to return the non-reduced basis ['-x + y', 'x^2 - 1']
    (lambda n: [tuple(range(n))], "'bad' ties distinct monomials in 2 variables"),
    # used to raise IndexError
    (lambda n: [(i,) for i in range(n)] + [(n,)], "'bad' names a variable outside 0..1"),
    (lambda n: [(-1,)] + [(i,) for i in range(n)], "'bad' names a variable outside 0..1"),
], ids=["total-degree-only", "index-past-the-end", "negative-index"])
def test_rows_that_are_not_a_monomial_order_are_refused(rule, match):
    from weylcas.groebner import buchberger

    order = TermOrder("bad", rule)
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    with pytest.raises(ValueError, match=match):
        buchberger([xx - yy, xx * yy - 1], order)
    # nothing is cached: the check runs again, and key refuses too
    with pytest.raises(ValueError, match=match):
        order.key_for(2)


def test_a_row_counts_a_variable_as_often_as_it_names_it():
    # the third row weighs y twice: it is the sum of the first two, so x z
    # and y tie (both weigh (1, 1, 2)), although the 0/1 supports of the
    # three rows are independent
    tied = TermOrder("tied", lambda n: [(0, 1), (1, 2), (0, 1, 1, 2)])
    with pytest.raises(ValueError, match="'tied' ties distinct monomials in 3 variables"):
        tied.rows(3)
    doubled = TermOrder("doubled", lambda n: [(0, 0, 1), (0,)])
    assert doubled.key_for(2)((1, 2)) == (4, 1) and doubled.rows(2) == ((0, 0, 1), (0,))


def test_to_str_round_shape():
    p = 2 * x ** 2 - y + SparsePoly.constant(XY, Fraction(1, 2))
    assert p.to_str() == "2*x^2 - y + 1/2"


small_polys = st.builds(
    lambda terms: SparsePoly(XY, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-5, max_value=5),
        max_size=5,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_leibniz_property(p, q):
    for i in range(2):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


def test_power_squares_only_while_bits_remain(monkeypatch):
    rng = random.Random("pow")
    real = SparsePoly.__mul__
    log = []

    def counting(a, b):
        if isinstance(b, SparsePoly):
            log.append(len(a.terms) * len(b.terms))
        return real(a, b)

    for trial in range(20):
        b = P({(rng.randrange(4), rng.randrange(4)): rng.choice([-2, -1, 1, 3, Fraction(1, 2)])
               for _ in range(2 + trial % 7)})
        for k in range(10):
            want = one
            for _ in range(k):
                want = want * b
            monkeypatch.setattr(SparsePoly, "__mul__", counting)
            del log[:]
            got = b ** k
            monkeypatch.setattr(SparsePoly, "__mul__", real)
            assert got == want
            # bit_length - 1 squarings, popcount - 1 products into the result
            assert len(log) == (max(k.bit_length(), 1) - 1) + max(bin(k).count("1") - 1, 0)
            if k == 2:
                assert log == [len(b.terms) ** 2]


def test_a_constant_hashes_as_its_value():
    # once SparsePoly.one(v) == 1 while len({SparsePoly.one(v), 1}) == 2
    for v in (("x",), ("x", "y")):
        for c in (1, -7, Fraction(3, 4), 0):
            p = SparsePoly.constant(v, c)
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1
    x = SparsePoly.variable(("x",), 0)
    assert {x + 1 - x: "one"}[1] == "one"

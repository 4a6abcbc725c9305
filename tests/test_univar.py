import itertools
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    exact_rule,
    old_coprime_factorization,
    old_crt_idempotents,
    old_divmod_poly,
    old_gcd,
    old_rational_roots,
    old_squarefree_decomposition,
    old_xgcd,
)
from weylcas import univar
from weylcas.univar import coprime_factorization, crt_idempotents, irreducible_factors, rational_roots


def P(*coeffs):
    return [Fraction(c) for c in coeffs]


def product(factors):
    out = P(1)
    for q, m in factors:
        for _ in range(m):
            out = univar.mul(out, q)
    return out


def eisenstein(rng, degree):
    """An irreducible polynomial over Q by Eisenstein's criterion, not
    necessarily monic."""
    p = rng.choice((2, 3, 5, 7))
    coeffs = [p * rng.randint(-3, 3) for _ in range(degree)]
    c0 = 0
    while c0 % p == 0:
        c0 = rng.randint(-5, 5)
    coeffs[0] = p * c0
    lead = rng.choice((1, 1, 2, 3, 4))
    while lead % p == 0:
        lead += 1
    return P(*coeffs, lead)


def as_set(parts):
    return sorted((tuple(q), m) for q, m in parts)


def test_seeded_products_of_irreducibles_factor_exactly():
    rng = random.Random(2024)
    for _ in range(120):
        factors, seen = [], set()
        for _ in range(rng.randint(1, 3)):
            q = univar.monic(eisenstein(rng, rng.randint(1, 8)))
            if tuple(q) not in seen:
                seen.add(tuple(q))
                factors.append((q, rng.randint(1, 3)))
        content = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        a = univar.scale(product(factors), content)
        assert as_set(coprime_factorization(a)) == as_set(factors)


@pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 1), (1, 0, -10, 0, 1)])
def test_irreducible_but_split_modulo_every_prime(coeffs):
    # x^4 + 1 and the minimal polynomial of sqrt2 + sqrt3 split modulo every
    # prime, so only recombination proves them irreducible
    f = P(*coeffs)
    for p in (3, 5, 7, 11, 13):
        # (product of the degree-d factors, d): more than one factor mod p
        assert sum((len(g) - 1) // d for g, d in univar._distinct_degree(list(coeffs), p)) > 1
    assert irreducible_factors(f) == [f]
    assert coprime_factorization(f) == [(f, 1)]


def test_recombination_separates_two_lookalike_quartics():
    f, g = P(1, 0, 0, 0, 1), P(1, 0, -10, 0, 1)
    assert irreducible_factors(univar.mul(f, g)) == [g, f]


def test_huge_constant_quadratic_is_fast():
    f = P(10 ** 20 + 1, 0, 1)
    start = time.perf_counter()
    assert coprime_factorization(f) == [(f, 1)]
    assert rational_roots(f) == []
    assert time.perf_counter() - start < 1.0


def test_degree_five_products_split_completely():
    # the trial-division factorizer kept both of these whole
    for a, b in [(P(1, 0, 1), P(-2, 0, 0, 1)), (P(-2, 0, 0, 1), P(-3, 0, 0, 1))]:
        f = univar.mul(a, b)
        assert old_coprime_factorization(f) == [(f, 1)]
        assert as_set(coprime_factorization(f)) == as_set([(a, 1), (b, 1)])


def test_factor_order_is_deterministic():
    f = product([(P(-2, 0, 0, 1), 1), (P(1, 1), 1), (P(1, 0, 1), 1), (P(-3, 1), 2)])
    parts = coprime_factorization(f)
    assert [m for _, m in parts] == [1, 1, 1, 2]
    assert [q for q, _ in parts[:3]] == [P(1, 1), P(1, 0, 1), P(-2, 0, 0, 1)]
    assert parts == coprime_factorization(f)


def test_rational_roots_match_trial_division():
    rng = random.Random(7)
    for _ in range(150):
        factors = [(P(-Fraction(rng.randint(-6, 6), rng.randint(1, 4)), 1), rng.randint(1, 2))
                   for _ in range(rng.randint(0, 3))]
        factors.append((P(rng.randint(1, 5), rng.randint(-2, 2), 1), 1))  # maybe irreducible
        a = univar.scale(product(factors), rng.randint(1, 5))
        if rng.random() < 0.3:
            a = [Fraction(0)] + a
        assert rational_roots(a) == old_rational_roots(a)


def test_agrees_with_trial_division_where_that_is_complete():
    # after removing rational roots at most one quartic, one cubic or two
    # quadratics remain: the range the trial-division factorizer splits
    rng = random.Random(11)
    for _ in range(80):
        rest = rng.choice([[2], [3], [4], [2, 2], []])
        factors = [(univar.monic(eisenstein(rng, d)), 1) for d in rest]
        factors += [(P(rng.randint(-9, 9), 1), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
        a = product(factors)
        assert as_set(coprime_factorization(a)) == as_set(old_coprime_factorization(a))


def test_crt_idempotents():
    moduli = [univar.mul(P(1, 0, 1), P(1, 0, 1)), P(-2, 0, 0, 1), P(-1, 1)]
    total = product([(m, 1) for m in moduli])
    es = crt_idempotents(moduli)
    for i, e in enumerate(es):
        assert univar.deg(e) < univar.deg(total)
        for j, m in enumerate(moduli):
            r = univar.divmod_poly(e, m)[1]
            assert r == (P(1) if i == j else [])
    assert univar.divmod_poly(sum_polys(es + [P(-1)]), total)[1] == []


def sum_polys(ps):
    return univar.trim([sum(c) for c in itertools.zip_longest(*ps, fillvalue=Fraction(0))])


# ---------- integer Euclid against the Fraction oracles ----------

def euclid_corpus():
    """Seeded pairs (a, b) from the families of test_artin: Eisenstein
    factors, quadratics x^2 + c with c near 10^12, and linear factors with
    constants near 1/10^12, with multiplicities, common factors and
    rational contents; and zero and constant polynomials."""
    rng = random.Random(31)

    def factor():
        kind = rng.randrange(3)
        if kind == 0:
            return eisenstein(rng, rng.randint(1, 6))
        if kind == 1:
            return P(10 ** 12 + rng.randint(1, 1000), 0, 1)
        return P(rng.randint(-9, 9) + Fraction(rng.choice((-1, 1)), 10 ** 12), 1)

    def poly(common):
        own = [(factor(), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        content = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))
        return univar.scale(product(common + own), content)

    for _ in range(60):
        common = [(factor(), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        yield poly(common), poly(common)
    yield from [([], []), (P(3), []), ([], P(-2, 5)), (P(1, 1), P(Fraction(1, 7))),
                (P(Fraction(2, 3)), P(4, 0, 1))]


def test_integer_euclid_matches_the_fraction_oracles():
    crt_checked = 0
    for a, b in euclid_corpus():
        if b:
            q, r = univar.divmod_poly(a, b)
            assert (q, r) == old_divmod_poly(a, b) and exact_rule([q, r])
        g = univar.gcd(a, b)
        assert g == old_gcd(a, b) and exact_rule(g)
        g, s, t = univar.xgcd(a, b)
        assert (g, s, t) == old_xgcd(a, b) and exact_rule([g, s, t])
        for f in (a, b):
            assert univar.squarefree_decomposition(f) == old_squarefree_decomposition(f)
        moduli = [product([part]) for part in coprime_factorization(a)]
        if len(moduli) > 1:
            es = crt_idempotents(moduli)
            assert es == old_crt_idempotents(moduli) and exact_rule(es)
            crt_checked += 1
    assert crt_checked >= 15


# ---------- the recombination budget ----------

def swinnerton_dyer(primes):
    """The integer polynomial prod (x +- sqrt(p_1) +- ... +- sqrt(p_k)) of
    degree 2^k, irreducible over Q: each prime p turns g into
    g(x + sqrt p) g(x - sqrt p) = A^2 - p B^2 for g(x + sqrt p) = A + sqrt(p) B."""
    f = [0, 1]
    for p in primes:
        a, b = [], []
        for c in reversed(f):
            # (a + sqrt(p) b)(x + sqrt(p)) + c
            a, b = univar._iadd(univar._iadd([0] + a, [p * y for y in b]), [c]), univar._iadd([0] + b, a)
        f = univar._isub(univar._imul(a, a), [p * y for y in univar._imul(b, b)])
    return f


def test_swinnerton_dyer_polynomials_within_the_budget_are_irreducible():
    assert swinnerton_dyer([2, 3]) == [1, 0, -10, 0, 1]
    for primes in ([2, 3], [2, 3, 5], [2, 3, 5, 7]):
        f = P(*swinnerton_dyer(primes))
        assert irreducible_factors(f) == [f]


def test_recombination_past_the_budget_is_refused(monkeypatch):
    # modulo 5, the first usable prime, x^4 - 10x^2 + 1 has two quadratic
    # factors, so recombination tries the two subsets of size one
    f = P(*swinnerton_dyer([2, 3]))
    monkeypatch.setattr(univar, "RECOMBINATION_SUBSETS", 1)
    with pytest.raises(univar.RecombinationBudgetError, match="more than 1 recombination subsets"):
        irreducible_factors(f)
    assert issubclass(univar.RecombinationBudgetError, ValueError)
    monkeypatch.setattr(univar, "RECOMBINATION_SUBSETS", 2)
    assert irreducible_factors(f) == [f]

"""Integral matrix and vector entries stay Python ints, with the same values as before.

`linalg` stores an entry as `SparsePoly` stores a coefficient: an int when
it is integral and a Fraction otherwise.  Each seeded case below checks the
products, the elimination, `Subspace`, `MatrixFamily`, the Krylov and
Horner kernels, the integer Euclid of `univar` and the products of
`ArtinAlgebra` by value against the Fraction loops in `oracles` (or a
plain Fraction sum), on three kinds of input: int
matrices, the same matrices with every entry an integral Fraction, and
rational matrices with denominators up to 10^12.  No output may store an
integral Fraction, and where the exact answer to integer inputs is integral
every stored entry must be an int: a Fraction there would mean the int path
has silently gone.
"""

import random
from fractions import Fraction

import pytest
from oracles import (
    OldSubspace,
    exact_rule,
    mult_matrix,
    old_divmod_poly,
    old_gcd,
    old_mat_mul,
    old_mat_vec,
    old_minimal_polynomial_of_vector,
    old_monic,
    old_mul,
    old_mult,
    old_mult_matrix,
    old_nullspace,
    old_poly_apply,
    old_rank,
    old_rref,
    old_solve,
    old_structure_table,
    old_xgcd,
    subspace_coords,
    var_matrices,
)

from weylcas import linalg, univar
from weylcas.artin import ArtinAlgebra
from weylcas.poly import SparsePoly

KINDS = ("int", "integral", "rational")


def _entry(rng, kind):
    n = 0 if rng.random() < 0.3 else rng.choice([-3, -2, -1, 1, 1, 2, 5, 12, 10 ** 12 + 7])
    if kind == "int":
        return n
    if kind == "integral":
        return Fraction(n)
    return Fraction(n, rng.choice([1, 2, 3, 10, rng.randint(1, 10 ** 12)]))


def _matrix(rng, kind, rows, cols):
    return [[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def Q(a):
    return [[Fraction(x) for x in row] for row in a]


def _all_ints(values):
    return all(_all_ints(x) if isinstance(x, list) else type(x) is int for x in values)


def test_the_rule_check_itself():
    assert exact_rule([[0, 1, -5], [Fraction(1, 2)], []])
    assert not exact_rule([1, Fraction(2)])
    assert not exact_rule([[Fraction(0)]])
    assert not exact_rule([0.5])


@pytest.mark.parametrize("kind", KINDS)
def test_products_match_the_fraction_loops(kind):
    rng = random.Random(f"products-{kind}")
    for _ in range(80):
        ra, k, cb = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _matrix(rng, kind, ra, k), _matrix(rng, kind, k, cb)
        v = _matrix(rng, kind, 1, k)[0]
        before = (linalg.copy(a), linalg.copy(b), v[:])
        product, image = linalg.mat_mul(a, b), linalg.mat_vec(a, v)
        assert product == old_mat_mul(Q(a), Q(b))
        assert image == old_mat_vec(Q(a), v)
        assert (a, b, v) == before
        assert exact_rule([product, image])
        if kind != "rational":
            assert _all_ints([product, image])


@pytest.mark.parametrize("kind", KINDS)
def test_elimination_matches_the_fraction_loops(kind):
    rng = random.Random(f"elimination-{kind}")
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _matrix(rng, kind, rows, cols)
        if rng.random() < 0.4:
            # a rank-deficient matrix: a product through a narrower space
            inner = rng.randint(1, min(rows, cols))
            a = linalg.mat_mul(_matrix(rng, kind, rows, inner), _matrix(rng, kind, inner, cols))
        b = [_entry(rng, kind) for _ in range(rows)]
        r, pivots = linalg.rref(a)
        kernel = linalg.nullspace(a)
        solution = linalg.solve(a, b)
        assert (r, pivots) == old_rref(Q(a))
        assert linalg.rank(a) == old_rank(Q(a))
        assert kernel == old_nullspace(Q(a))
        assert solution == old_solve(Q(a), b)
        assert exact_rule([r, kernel, solution or []])


@pytest.mark.parametrize("kind", KINDS)
def test_subspace_matches_the_fraction_loops(kind):
    rng = random.Random(f"subspace-{kind}")
    for _ in range(60):
        n = rng.randint(1, 6)
        vectors = _matrix(rng, kind, rng.randint(1, n + 2), n)
        new, old = linalg.Subspace(n), OldSubspace(n)
        for v in vectors:
            assert new.add(v) == old.add(v)
        # other vectors, and one combination of the basis: inside the span
        combination = [_entry(rng, kind) for _ in new.basis]
        probes = vectors + _matrix(rng, kind, 3, n)
        probes.append(linalg.mat_vec(linalg.transpose(new.basis), combination)
                      if new.basis else [0] * n)
        for v in probes:
            pair, (nums, den) = new.coords(v), new.project(v)
            # integer numerators over a positive denominator, compared by value
            assert _all_ints([nums, pair[0] if pair else []])
            assert den > 0 and (pair is None or pair[1] > 0)
            coords, projected = subspace_coords(new, v), linalg.fraction_vector(nums, den)
            assert coords == old.coords(v)
            assert projected == old.project(v)
            assert exact_rule([coords or [], projected])


def _fraction_sum(coeffs, matrices, rows, cols):
    """sum_i coeffs[i] matrices[i], entry by entry over Fractions."""
    return [[sum((Fraction(c) * m[r][k] for c, m in zip(coeffs, matrices)), Fraction(0))
             for k in range(cols)] for r in range(rows)]


@pytest.mark.parametrize("kind", KINDS)
def test_matrix_family_matches_a_fraction_sum(kind):
    rng = random.Random(f"family-{kind}")
    for case in range(80):
        rows, cols, size = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4)
        matrices = [_matrix(rng, kind, rows, cols) for _ in range(size)]
        den = rng.choice([1, 1, 3, 10 ** 12])
        members = [linalg.integer_matrix(m) for m in matrices]
        family = linalg.MatrixFamily([(m, d * den) for m, d in members])
        scaled = [[[Fraction(x) / den for x in row] for row in m] for m in matrices]
        for coeffs in ([_entry(rng, kind) for _ in range(size)], [0] * size,
                       [Fraction(0)] * size):
            nums, combined_den = family.combine(coeffs)
            assert _all_ints(nums)
            combined = linalg.fraction_matrix(nums, combined_den)
            assert combined == _fraction_sum(coeffs, scaled, rows, cols), (case, coeffs)
            assert exact_rule(combined)
            if kind != "rational" and den == 1:
                assert _all_ints(combined)


def _combined(family, coeffs):
    return linalg.fraction_matrix(*family.combine(coeffs))


def test_matrix_family_edge_shapes():
    # dimension 0: members with no rows, or rows of no entries
    assert _combined(linalg.MatrixFamily([([], 1), ([], 1)]), [1, 2]) == []
    assert _combined(linalg.MatrixFamily([([[], []], 1)]), [Fraction(1, 3)]) == [[], []]
    # an empty family has no shape and combines to []
    assert linalg.MatrixFamily([]).combine([]) == ([], 1)
    # all-zero coefficients give a zero matrix of the members' shape
    family = linalg.MatrixFamily([([[2, 1], [6, 8]], 2), ([[0, 1], [1, 0]], 1)])
    assert _combined(family, [0, 0]) == [[0, 0], [0, 0]]
    assert _all_ints(_combined(family, [0, 0]))
    assert _combined(family, [2, Fraction(-1, 3)]) == [[2, Fraction(2, 3)], [Fraction(17, 3), 8]]
    # the denominator is the coefficients' times the lcm of the members'
    assert family.combine([2, Fraction(-1, 3)]) == ([[12, 4], [34, 48]], 6)
    with pytest.raises(ValueError, match="3 coefficients for a family of 2 matrices"):
        family.combine([1, 2, 3])
    with pytest.raises(ValueError, match="in a family of"):
        linalg.MatrixFamily([([[1, 2]], 1), ([[1], [2]], 1)])
    with pytest.raises(ValueError, match="ragged"):
        linalg.MatrixFamily([([[1, 2], [3]], 1)])


@pytest.mark.parametrize("kind", KINDS)
def test_krylov_and_horner_match_the_fraction_loops(kind):
    rng = random.Random(f"krylov-{kind}")
    for _ in range(60):
        n = rng.randint(1, 5)
        a = _matrix(rng, kind, n, n)
        v = _matrix(rng, kind, 1, n)[0]
        annihilator = linalg.annihilator(a, v)
        assert annihilator == old_minimal_polynomial_of_vector(Q(a), Q([v])[0])
        p = [_entry(rng, kind) for _ in range(rng.randint(0, 4))]
        applied = linalg.poly_apply(p, a, v)
        assert applied == old_poly_apply(p, Q(a), Q([v])[0])
        assert exact_rule([annihilator, applied])
        if kind != "rational":
            assert _all_ints(applied)


@pytest.mark.parametrize("kind", KINDS)
def test_univar_euclid_matches_the_fraction_loops(kind):
    rng = random.Random(f"euclid-{kind}")
    for _ in range(60):
        common = univar.trim([_entry(rng, kind) for _ in range(rng.randint(1, 3))]) or [1]
        a = univar.trim(old_mul(common, [_entry(rng, kind) for _ in range(rng.randint(1, 4))]))
        b = univar.trim(old_mul(common, [_entry(rng, kind) for _ in range(rng.randint(1, 4))]))
        product, made_monic = univar.mul(a, b), univar.monic(a)
        assert product == old_mul(a, b) and made_monic == old_monic(a)
        g, s, t = univar.xgcd(a, b)
        assert univar.gcd(a, b) == old_gcd(a, b) == g
        assert (g, s, t) == old_xgcd(a, b)
        outputs = [product, made_monic, g, s, t]
        if b:
            q, r = univar.divmod_poly(a, b)
            assert (q, r) == old_divmod_poly(a, b)
            outputs += [q, r]
        assert exact_rule(outputs)
        if kind != "rational":
            assert _all_ints(product)


@pytest.mark.parametrize("kind", KINDS)
def test_artin_products_match_the_fraction_table(kind):
    rng = random.Random(f"artin-{kind}")
    XY = ("x", "y")
    x, y = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    for _ in range(12):
        c = [_entry(rng, kind) for _ in range(4)]
        # heads x^2 and y^2 under grevlex: zero-dimensional
        A = ArtinAlgebra.from_presentation(XY, [x ** 2 + c[0] * y + c[1], y ** 2 + c[2] * x + c[3]])
        table = old_structure_table(A)
        for _ in range(4):
            u, v = _matrix(rng, kind, 2, A.dim)
            product, matrix = A.mult(u, v), mult_matrix(A, v)
            assert product == old_mult(table, u, v)
            assert matrix == old_mult_matrix(table, v)
            assert exact_rule([product, matrix, var_matrices(A)])
            if kind != "rational":
                assert _all_ints([product, matrix, var_matrices(A)])


def test_integer_vector_returns_a_row_the_caller_owns():
    for v in ([3, 0, -1], [Fraction(3), 0, Fraction(-1)], [Fraction(1, 2), 2, 0]):
        before = v[:]
        nums, den = linalg.integer_vector(v)
        assert nums is not v
        nums[0] = 99
        assert v == before
    nums = [4, 6]
    out = linalg.fraction_vector(nums, 1)
    out[0] = 99
    assert nums == [4, 6] and linalg.fraction_vector(nums, 2) == [2, 3]


def test_builders_store_ints():
    assert _all_ints([linalg.zeros(2, 3), linalg.identity(3), linalg.unit_vector(4, 2)])
    assert linalg.fraction_vector([4, -3, 0], 2) == [2, Fraction(-3, 2), 0]
    assert exact_rule(linalg.fraction_vector([4, -3, 0], 2))

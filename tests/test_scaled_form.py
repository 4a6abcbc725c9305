"""The scaled form: integer rows m over one denominator d, standing for m / d.

Each `linalg` kernel takes integer rows as they are.  These tests check,
on seeded integer matrices with d in {1, 6, 10^6}, that every kernel
gives on the scaled form the answer it gives on the Fraction matrix the
form stands for, and that a ragged matrix or a wrong shape still raises
ValueError.  Then the Artinian layer, which runs on the scaled form, is
checked against the Fraction oracles in `oracles`, on seeded algebras
supported at points with non-integer coordinates, so that its matrices
carry a denominator above 1.  Last, the hull layer, which holds each
action once, scaled: every module it builds unchecked passes the checking
constructor, and `submodule_closure` and `LocalFactor.restrict` agree with
Fraction-action oracles.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import (
    OldSubspace,
    exact_rule,
    mult_matrix,
    old_action_of_vector,
    old_decompose_local,
    old_mat_mul,
    old_mat_vec,
    old_mult_matrix,
    old_structure_table,
    old_submodule_closure,
    subspace_coords,
    var_actions,
    var_matrices,
)

from weylcas import linalg
from weylcas.artin import ArtinAlgebra, decompose_local
from weylcas.hulls import ArtinModule, essential_hull, socle_multiplicities
from weylcas.poly import SparsePoly

DENS = (1, 6, 10 ** 6)


def _ints(rng, rows, cols):
    return [[rng.choice([0, 0, 1, -1, 2, 3, -5, 7, 10 ** 6 + 3]) for _ in range(cols)]
            for _ in range(rows)]


def _cases(name, count=40):
    """Seeded (rng, d) pairs, every d in DENS equally often."""
    rng = random.Random(f"scaled-{name}")
    return [(rng, DENS[i % len(DENS)]) for i in range(count)]


def test_products_and_transpose_on_the_scaled_form():
    for rng, d in _cases("products"):
        ra, k, cb = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        ma, mb = _ints(rng, ra, k), _ints(rng, k, cb)
        db = rng.choice(DENS)
        v = _ints(rng, 1, k)[0]
        fa, fb = linalg.fraction_matrix(ma, d), linalg.fraction_matrix(mb, db)
        product = linalg.mat_mul(ma, mb)
        assert all(type(x) is int for row in product for x in row)
        assert linalg.fraction_matrix(product, d * db) == linalg.mat_mul(fa, fb)
        assert linalg.fraction_matrix(product, d * db) == old_mat_mul(fa, fb)
        assert linalg.fraction_vector(linalg.mat_vec(ma, v), d) == linalg.mat_vec(fa, v)
        assert linalg.fraction_matrix(linalg.transpose(ma), d) == linalg.transpose(fa)


def test_elimination_on_the_scaled_form():
    for rng, d in _cases("elimination"):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _ints(rng, rows, cols)
        if rng.random() < 0.4:
            m = linalg.mat_mul(_ints(rng, rows, 1), _ints(rng, 1, cols))
        f = linalg.fraction_matrix(m, d)
        assert linalg.rank(m) == linalg.rank(f)
        assert linalg.nullspace(m) == linalg.nullspace(f)
        assert linalg.rref(m) == linalg.rref(f)
        echelon, pivots = linalg.echelon_rows(m)
        assert (echelon, pivots) == linalg.echelon_rows(f)
        # primitive integer rows, positive at their pivots
        assert all(type(x) is int for row in echelon for x in row)
        assert all(row[c] > 0 and gcd(*row) == 1 for row, c in zip(echelon, pivots))


def test_subspace_on_the_scaled_form():
    for rng, d in _cases("subspace"):
        n = rng.randint(1, 5)
        m = _ints(rng, rng.randint(1, n + 1), n)
        scaled, exact = linalg.Subspace(n, m), linalg.Subspace(n, linalg.fraction_matrix(m, d))
        assert scaled == exact
        for w in _ints(rng, 3, n) + m:
            assert (w in scaled) == (w in exact)
            projected = linalg.fraction_vector(*scaled.project(w))
            assert projected == linalg.fraction_vector(*exact.project(w))
            # w = sum_i c_i m_i = sum_i (d c_i) (m_i / d)
            coords = subspace_coords(scaled, w)
            assert subspace_coords(exact, w) == (None if coords is None else [c * d for c in coords])


def test_krylov_and_horner_on_the_scaled_form():
    for rng, d in _cases("krylov"):
        n = rng.randint(1, 4)
        m = _ints(rng, n, n)
        v = _ints(rng, 1, n)[0]
        p = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
        f = linalg.fraction_matrix(m, d)
        annihilator = linalg.annihilator(m, v, d)
        assert annihilator == linalg.annihilator(f, v)
        applied = linalg.poly_apply(p, m, v, d)
        assert applied == linalg.poly_apply(p, f, v)
        assert exact_rule([annihilator, applied])


def test_matrix_family_combines_to_the_scaled_form():
    rng = random.Random("scaled-family")
    for case in range(30):
        rows, cols = rng.randint(0, 3), rng.randint(0, 3)
        members = [(_ints(rng, rows, cols), rng.choice(DENS)) for _ in range(3)]
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice(DENS)) for _ in range(3)]
        nums, den = linalg.MatrixFamily(members).combine(coeffs)
        assert all(type(x) is int for row in nums for x in row)
        exact = [[sum((c * Fraction(m[r][k], d) for c, (m, d) in zip(coeffs, members)),
                      Fraction(0)) for k in range(cols)] for r in range(rows)]
        assert linalg.fraction_matrix(nums, den) == exact, case


RAGGED = [[1, 2], [3]]


@pytest.mark.parametrize("call", [
    lambda: linalg.mat_mul(RAGGED, [[1], [2]]),
    lambda: linalg.mat_mul([[1, 2]], RAGGED),
    lambda: linalg.mat_mul([[1, 2]], [[1, 2]]),
    lambda: linalg.mat_vec(RAGGED, [1, 2]),
    lambda: linalg.mat_vec([[1, 2]], [1, 2, 3]),
    lambda: linalg.transpose(RAGGED),
    lambda: linalg.rank(RAGGED),
    lambda: linalg.nullspace(RAGGED),
    lambda: linalg.rref(RAGGED),
    lambda: linalg.echelon_rows(RAGGED),
    lambda: linalg.annihilator(RAGGED, [1, 0], 6),
    lambda: linalg.annihilator([[1, 2], [3, 4]], [1, 0, 0], 6),
    lambda: linalg.annihilator([[1, 2, 3], [3, 4, 5]], [1, 0], 6),
    lambda: linalg.poly_apply([1, 1], RAGGED, [1, 0], 6),
    lambda: linalg.poly_apply([1, 1], [[1, 2], [3, 4]], [1], 6),
    lambda: linalg.poly_apply([1, 1], [[1], [3]], [1, 0], 6),
    lambda: linalg.Subspace(2, [[1, 2, 3]]),
    lambda: linalg.MatrixFamily([([[1, 2], [3]], 6)]),
    lambda: linalg.MatrixFamily([([[1, 2]], 6), ([[1], [2]], 1)]),
    lambda: linalg.MatrixFamily([([[1, 2]], 6)]).combine([1, 2]),
], ids=["mat_mul_left", "mat_mul_right", "mat_mul_shapes", "mat_vec_ragged", "mat_vec_length",
        "transpose", "rank", "nullspace", "rref", "echelon_rows", "annihilator_ragged",
        "annihilator_length", "annihilator_square", "poly_apply_ragged", "poly_apply_length",
        "poly_apply_square", "subspace", "family_ragged", "family_shapes", "family_coefficients"])
def test_scaled_kernels_refuse_ragged_and_misshaped_input(call):
    with pytest.raises(ValueError):
        call()


# ---------- the Artinian layer against the Fraction oracles ----------

XY = ("x", "y")


def rational_point_algebra(rng):
    """Q[x, y] / (prod (x - r_i)^m_i, prod (y - s_j - c x)^n_j) at points
    with non-integer coordinates, so the variable matrices have a
    denominator above 1."""
    x, y = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    mx = rng.choice([[2], [1, 1], [2, 1]])
    my = rng.choice([[1], [2], [1, 1]])
    rs = rng.sample([Fraction(k, 2) for k in range(-5, 6, 2)] + [Fraction(1, 3)], len(mx))
    ss = rng.sample([Fraction(k, 3) for k in (-4, -2, -1, 1, 2, 5)], len(my))
    c = rng.choice([Fraction(1, 2), Fraction(-2, 3), 1])
    f, g = SparsePoly.one(XY), SparsePoly.one(XY)
    for r, m in zip(rs, mx):
        f = f * (x - r) ** m
    for s, m in zip(ss, my):
        g = g * (y - s - c * x) ** m
    return ArtinAlgebra.from_presentation(XY, [f, g])


def _algebras():
    rng = random.Random("scaled-artin")
    out = []
    for _ in range(10):
        A = rational_point_algebra(rng)
        assert any(type(x) is Fraction for m in var_matrices(A) for row in m for x in row)
        out.append((rng, A))
    return out


def _span_snapshot(factors):
    return [(f.dim, f.idempotent, linalg.Subspace(f.algebra.dim, f.basis_vectors))
            for f in factors]


def test_decomposition_matches_the_kernel_power_oracle_at_rational_points():
    for _, A in _algebras():
        new, old = decompose_local(A), old_decompose_local(A)
        assert _span_snapshot(new) == _span_snapshot(old)
        assert exact_rule([f.idempotent for f in new])


def _modules(rng, A):
    regular = ArtinModule.regular(A)
    vec = [Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(A.dim)]
    vec[0] = vec[0] or Fraction(1, 2)
    out = [regular, regular.dual()]
    sub = regular.submodule_closure([vec])
    if len(sub) < regular.dim:
        out.append(regular.quotient_by(sub))
    return out


def _old_monomial_action(module, e):
    out = linalg.identity(module.dim)
    for i, k in enumerate(e):
        for _ in range(k):
            out = old_mat_mul(var_actions(module)[i], out)
    return out


def test_products_and_actions_match_the_fraction_oracles_at_rational_points():
    for rng, A in _algebras():
        table = old_structure_table(A)
        for _ in range(3):
            v = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 6])) for _ in range(A.dim)]
            matrix = mult_matrix(A, v)
            assert matrix == old_mult_matrix(table, v) and exact_rule(matrix)
            for module in _modules(rng, A):
                action = module.action_of_vector(v)
                assert action == old_action_of_vector(module, v) and exact_rule(action)
        for module in _modules(rng, A):
            for e in A.basis:
                action = module.monomial_action(e)
                assert action == _old_monomial_action(module, e) and exact_rule(action)


def test_every_hull_certificate_holds_at_rational_points():
    for rng, A in _algebras():
        factors = decompose_local(A)
        for module in _modules(rng, A):
            hull = essential_hull(A, module, factors)
            assert all(hull.certificates.values()), hull.certificates
            assert hull.multiplicities == socle_multiplicities(A, module, factors)
            assert hull.module.dim == sum(m * f.dim for m, f in zip(hull.multiplicities, factors))
            assert exact_rule(var_actions(hull.module))


# ---------- one scaled representation through the hull layer ----------

def _integer_point_algebras():
    """Q[x, y] / (prod (x - r_i)^m_i, y - c x - s) at integer points."""
    rng = random.Random("scaled-integer-points")
    x, y = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    out = []
    for _ in range(20):
        f = SparsePoly.one(XY)
        for r in rng.sample(range(-3, 4), rng.randint(1, 3)):
            f = f * (x - r) ** rng.randint(1, 2)
        g = (y - rng.randint(-2, 2) * x - rng.randint(-2, 2)) ** rng.randint(1, 2)
        out.append((rng, ArtinAlgebra.from_presentation(XY, [f, g])))
    return out


def _checked(module):
    """The module rebuilt through the checking constructor, from its
    scaled actions made Fraction matrices."""
    return ArtinModule(module.algebra, [linalg.fraction_matrix(m, d) for m, d in module._actions],
                       module.dim)


def test_every_unchecked_module_passes_the_public_checks():
    built = 0
    for rng, A in _algebras() + _integer_point_algebras():
        factors = decompose_local(A)
        modules = _modules(rng, A)
        modules += [essential_hull(A, module, factors).module for module in list(modules)]
        for module in modules:
            checked = _checked(module)
            assert var_actions(checked) == var_actions(module)
            assert all(type(x) is int for m, _ in module._actions for row in m for x in row)
            built += 1
    assert built >= 100


def test_submodule_closure_matches_the_fraction_action_oracle():
    for rng, A in _algebras() + _integer_point_algebras():
        for module in _modules(rng, A):
            for _ in range(2):
                vec = linalg.fraction_vector([rng.randint(-4, 4) for _ in range(module.dim)],
                                             rng.choice([1, 2, 5]))
                sub = module.submodule_closure([vec])
                assert sub == old_submodule_closure(module, [vec]) and exact_rule(sub)


def test_restriction_matches_the_fraction_oracle():
    for _, A in _algebras() + _integer_point_algebras():
        for factor in decompose_local(A):
            span = OldSubspace(A.dim, factor.basis_vectors)
            for (m, d), matrix in zip(A._vars, var_matrices(A)):
                expected = linalg.transpose([span.coords(old_mat_vec(matrix, v))
                                             for v in factor.basis_vectors])
                rows, den = factor.restrict(m, d)
                assert linalg.fraction_matrix(rows, den) == expected
                assert all(type(x) is int for row in rows for x in row) and den > 0

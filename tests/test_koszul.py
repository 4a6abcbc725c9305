import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from weylcas.groebner import Ideal
from weylcas.koszul import (
    GradedModuleModel,
    KoszulComplex,
    NotFiniteDimensionalError,
    SearchExhaustedError,
    build_psi_inductive,
    ext1_koszul,
    is_regular_sequence,
    koszul_h1_window,
    koszul_matrix,
    member_locally,
    prime_avoidance_sequence,
    psi_w_check,
    symbolic_power2_member,
)
from weylcas.poly import SparsePoly

XYZ = ("x", "y", "z")
x = SparsePoly.variable(XYZ, 0)
y = SparsePoly.variable(XYZ, 1)
z = SparsePoly.variable(XYZ, 2)


def strs(mat):
    return [[p.to_str() for p in row] for row in mat]


def test_koszul_degree_one():
    assert strs(koszul_matrix([x], 1, "right")) == [["x"]]


def test_psi2_matches_display():
    # row convention, g = 2: [-a_2, a_1]
    assert strs(koszul_matrix([x, y], 2, "right")) == [["-y", "x"]]


def test_psi3_block_shape():
    # rows (-a2, a1, 0), (-a3, 0, a1), (0, -a3, a2)
    assert strs(koszul_matrix([x, y, z], 2, "right")) == [
        ["-y", "x", "0"],
        ["-z", "0", "x"],
        ["0", "-z", "y"],
    ]


def test_left_is_transpose_of_right():
    left = koszul_matrix([x, y, z], 2, "left")
    right = koszul_matrix([x, y, z], 2, "right")
    assert strs(left) == [list(r) for r in zip(*strs(right))]


def random_polys(seed, count, degree=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(3):
            e = [0, 0, 0]
            for _ in range(rng.randrange(degree + 1)):
                e[rng.randrange(3)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(rng.randrange(-4, 5))
        p = SparsePoly(XYZ, terms)
        out.append(p if not p.is_zero() else x + 1)
    return out


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_d_compose_d_zero(g):
    a = random_polys(100 + g, g)
    assert KoszulComplex(a, "right").composes_to_zero()
    assert KoszulComplex(a, "left").composes_to_zero()


def test_matrix_sizes_binomial():
    a = random_polys(7, 4)
    c = KoszulComplex(a, "right")
    for k in range(1, 5):
        m = c.matrix(k)
        assert len(m) == comb(4, k)
        assert len(m[0]) == comb(4, k - 1)


def test_build_psi_inductive_base():
    mat, perm, signs = build_psi_inductive([x, y])
    assert strs(mat) == [["-y", "x"]]
    assert perm == [0] and signs == [1]


def test_build_psi_inductive_g3():
    mat, perm, signs = build_psi_inductive([x, y, z])
    assert strs(mat) == strs(koszul_matrix([x, y, z], 2, "right"))
    assert perm == [0, 1, 2] and signs == [1, 1, 1]


def test_build_psi_inductive_matches_up_to_g6():
    vars6 = tuple(f"x{i}" for i in range(6))
    gens = [SparsePoly.variable(vars6, i) + i for i in range(6)]
    for g in range(2, 7):
        mat, perm, signs = build_psi_inductive(gens[:g])
        exterior = koszul_matrix(gens[:g], 2, "right")
        for i, row in enumerate(mat):
            ref = exterior[perm[i]]
            assert all(p == (q if signs[i] == 1 else -q) for p, q in zip(row, ref))
        assert sorted(perm) == list(range(len(exterior)))


def test_psi_inductive_composes_with_phi():
    # g = 4: composition with the degree-1 map vanishes
    vars4 = ("a", "b", "c", "d")
    a = [SparsePoly.variable(vars4, i) for i in range(4)]
    mat, _, _ = build_psi_inductive(a)
    assert len(mat) == 6 and len(mat[0]) == 4
    zero = SparsePoly.zero(vars4)
    for row in mat:
        acc = zero
        for coeff, ai in zip(row, a):
            acc = acc + coeff * ai
        assert acc.is_zero()


def test_psi_w_check_g2():
    e = [x + y, z ** 2]
    assert psi_w_check([x, y], e)


def test_psi_w_check_g3():
    assert psi_w_check([x, y, z], [x * y - z])


def test_psi_w_check_g5_random():
    a = random_polys(21, 5)
    e = random_polys(22, 3)
    assert psi_w_check(a, e)


def test_regular_sequence_basic():
    ok, _ = is_regular_sequence([x, y])
    assert ok


def test_regular_sequence_repeat_fails():
    ok, witness = is_regular_sequence([x, x])
    assert not ok
    assert witness == SparsePoly.one(XYZ)


def test_regular_sequence_xy_xz_fails():
    ok, witness = is_regular_sequence([x * y, x * z])
    assert not ok
    # witness y: y * xz = z * xy in (xy), but y not in (xy)
    assert not Ideal(XYZ, [x * y]).contains(witness)
    assert Ideal(XYZ, [x * y]).contains(witness * x * z)


def test_regular_sequence_improper_fails():
    ok, _ = is_regular_sequence([x, y - 1, x + 3])
    # (x, y-1, x+3) contains 3, hence 1
    assert not ok


def test_symbolic_power_examples():
    P = Ideal(XYZ, [x])
    assert symbolic_power2_member(x ** 2, P)
    assert not symbolic_power2_member(x, P)
    Pxy = Ideal(XYZ, [x, y])
    assert symbolic_power2_member(x * y, Pxy)
    assert not symbolic_power2_member(x, Pxy)


def test_member_locally():
    # y*(y-1) is in (y) locally at (x, y) even though (y(y-1)) != (y)
    P = Ideal(XYZ, [x, y])
    L = Ideal(XYZ, [y * (y - 1)])
    assert member_locally(y, L, P)
    assert not member_locally(x, L, P)


def test_prime_avoidance_principal():
    P = Ideal(XYZ, [x])
    seq, _ = prime_avoidance_sequence(P, 1, seed=0)
    assert len(seq) == 1
    assert not symbolic_power2_member(seq[0], P)


def test_prime_avoidance_two_vars():
    P = Ideal(XYZ, [x, y])
    seq, _ = prime_avoidance_sequence(P, 2, seed=0)
    ok, _ = is_regular_sequence(seq)
    assert ok
    for i, xi in enumerate(seq):
        assert P.contains(xi)
        shifted = Ideal(XYZ, list(seq[:i]) + [a * b for a in P.generators for b in P.generators])
        assert not member_locally(xi, shifted, P)


def test_prime_avoidance_maximal_ideal_three_vars():
    P = Ideal(XYZ, [x, y, z])
    seq, _ = prime_avoidance_sequence(P, 2, seed=1)
    ok, _ = is_regular_sequence(seq)
    assert ok
    assert all(f.total_degree() == 1 for f in seq)


def test_prime_avoidance_deterministic():
    P = Ideal(XYZ, [x, y])
    s1, log1 = prime_avoidance_sequence(P, 2, seed=5)
    s2, log2 = prime_avoidance_sequence(P, 2, seed=5)
    assert [p.terms for p in s1] == [p.terms for p in s2]
    assert log1 == log2


def test_prime_avoidance_exhaustion():
    P = Ideal(XYZ, [x])
    with pytest.raises(SearchExhaustedError):
        prime_avoidance_sequence(P, 2, seed=0, trials=10)


# ---------- graded models and Ext^1 ----------

def test_model_pieces():
    R1 = GradedModuleModel.polynomial(("x",))
    assert R1.basis_of_total_degree(3) == [(3,)]
    assert R1.basis_of_total_degree(-1) == []
    E1 = GradedModuleModel.top_local_cohomology(("x",))
    assert E1.basis_of_total_degree(-1) == [(-1,)]
    assert E1.basis_of_total_degree(0) == []
    E2 = GradedModuleModel.top_local_cohomology(("x", "y"))
    assert len(E2.basis_of_total_degree(-2)) == 1
    assert len(E2.basis_of_total_degree(-4)) == 3


def test_model_mixed_pattern_rejected():
    m = GradedModuleModel(("x", "y"), "+-")
    with pytest.raises(NotFiniteDimensionalError):
        m.basis_of_total_degree(0)


def test_model_structure_maps_commute():
    E2 = GradedModuleModel.top_local_cohomology(("x", "y"))
    degrees = [(a, b) for a in range(-4, 0) for b in range(-4, 0)]
    assert E2.structure_maps_commute(degrees)


def test_ext1_polynomial_ring_not_injective():
    # Ext^1(R/(x), R) = R/(x): a single one-dimensional piece at degree -1
    X1 = ("x",)
    R = GradedModuleModel.polynomial(X1)
    xx = SparsePoly.variable(X1, 0)
    dims = ext1_koszul([xx], R, (-4, 4))
    assert dims[-1] == 1
    assert all(v == 0 for d, v in dims.items() if d != -1)


def test_ext1_hull_model_vanishes():
    X1 = ("x",)
    E = GradedModuleModel.top_local_cohomology(X1)
    xx = SparsePoly.variable(X1, 0)
    assert all(v == 0 for v in ext1_koszul([xx], E, (-5, 5)).values())
    assert all(v == 0 for v in ext1_koszul([xx ** 2], E, (-5, 5)).values())


def test_ext1_h2_model_vanishes():
    XY = ("x", "y")
    E = GradedModuleModel.top_local_cohomology(XY)
    xx = SparsePoly.variable(XY, 0)
    yy = SparsePoly.variable(XY, 1)
    for seq in ([xx, yy], [xx + yy, xx - yy], [xx ** 2, yy ** 2], [xx, yy ** 2]):
        dims = ext1_koszul(seq, E, (-6, 4))
        assert all(v == 0 for v in dims.values()), (seq, dims)


def test_h1_window_regular_vs_not():
    XY = ("x", "y")
    xx = SparsePoly.variable(XY, 0)
    yy = SparsePoly.variable(XY, 1)
    h1 = koszul_h1_window([xx, yy], (0, 6))
    assert all(v == 0 for v in h1.values())
    h1_bad = koszul_h1_window([xx, xx], (0, 6))
    assert any(v > 0 for v in h1_bad.values())


def test_h1_cross_validation_sample():
    XY = ("x", "y")
    xx = SparsePoly.variable(XY, 0)
    yy = SparsePoly.variable(XY, 1)
    corpus = [
        [xx, yy],
        [xx ** 2, yy ** 2],
        [xx + yy, xx - yy],
        [xx * yy, xx ** 2],
        [xx, xx * yy],
    ]
    for seq in corpus:
        ok, _ = is_regular_sequence(seq)
        top = sum(f.total_degree() for f in seq) + 2
        h1 = koszul_h1_window(seq, (0, top))
        assert ok == all(v == 0 for v in h1.values()), seq


# ---------- seeded non-monomial sequences, against independent counts ----------

def random_homogeneous(rng, vars_, count):
    """count homogeneous polynomials of degree 1-3 with at least two terms."""
    n = len(vars_)
    out = []
    while len(out) < count:
        deg = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(rng.choice([-2, -1, 1, 3]))
        p = SparsePoly(vars_, terms)
        if len(p.terms) >= 2:
            out.append(p)
    return out


def seeded_sequences(seed, cases, lengths):
    rng = random.Random(seed)
    for case in range(cases):
        vars_ = ("x", "y", "z")[: 2 + case % 2]
        yield random_homogeneous(rng, vars_, rng.choice(lengths))


def monomials_of_degree(n, d):
    out = []
    for picks in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return out


def test_matlis_duality_ext1_vs_h1():
    # Hom(-, E) is exact for the injective E = H^n_m(R), and E_d is dual to
    # R_(-d-n), so Ext^1(R/(a), E)_d has the dimension of H_1(a; R)_(-d-n)
    for a in seeded_sequences(31, 24, (1, 2, 3)):
        n = len(a[0].vars)
        top = sum(f.total_degree() for f in a) + 1
        h1 = koszul_h1_window(a, (0, top))
        E = GradedModuleModel.top_local_cohomology(a[0].vars)
        ext1 = ext1_koszul(a, E, (-top - n, -n))
        assert all(ext1[d] == h1[-d - n] for d in ext1), a


def test_h1_of_pair_is_h0_minus_euler_characteristic():
    # K_2 -> K_1 -> K_0 with K_2 -> K_1 injective: H_1 = H_0 - chi, where H_0
    # counts the standard monomials of (a_1, a_2) and chi comes from the
    # binomial dimensions of the graded pieces of R
    for a in seeded_sequences(47, 20, (2,)):
        n = len(a[0].vars)
        lead = [g.leading_term()[0] for g in Ideal(a[0].vars, a).groebner_basis()]
        d1, d2 = (f.total_degree() for f in a)

        def piece(e):
            return comb(e + n - 1, n - 1) if e >= 0 else 0

        h1 = koszul_h1_window(a, (0, d1 + d2 + 1))
        for d, got in h1.items():
            h0 = sum(1 for m in monomials_of_degree(n, d)
                     if not any(all(x <= y for x, y in zip(lm, m)) for lm in lead))
            chi = piece(d) - piece(d - d1) - piece(d - d2) + piece(d - d1 - d2)
            assert got == h0 - chi, (a, d)


def test_h1_vanishes_exactly_on_regular_triples():
    # the colon-ideal regularity test is an independent oracle for H_1 = 0;
    # the seeded triples mix regular and non-regular sequences
    rng = random.Random(59)
    seen = set()
    for _ in range(8):
        a = random_homogeneous(rng, XYZ, 3)
        ok, _ = is_regular_sequence(a)
        h1 = koszul_h1_window(a, (0, sum(f.total_degree() for f in a)))
        assert ok == all(v == 0 for v in h1.values()), a
        seen.add(ok)
    assert seen == {True, False}

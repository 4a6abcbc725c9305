import random
from fractions import Fraction

import pytest
from oracles import (
    _quotient_projection,
    exact_rule,
    mult_matrix,
    old_action_of_vector,
    socle_matches_primary_annihilator,
    var_actions,
    var_matrices,
)

from weylcas import linalg
from weylcas.artin import ArtinAlgebra, decompose_local
from weylcas.hulls import (
    MAX_TRUNCATION,
    ArtinModule,
    CurveExtension,
    NotMaximalError,
    TruncatedHull,
    TruncationError,
    ass_finite_x_module,
    ass_truncated_hull,
    essential_hull,
    maximal_ideal_stabilization_index,
    socle_growth_oracle,
    socle_multiplicities,
    hull_multiplicity,
)
from weylcas.poly import SparsePoly

Y = ("y",)
y = SparsePoly.variable(Y, 0)


def map_ext(f, m_gens):
    return CurveExtension(structural_map=f, maximal_ideal=m_gens)


CORPUS = [
    # (structural map, maximal ideal gens, expected c, expected nu dense)
    (y ** 2, [y], 2, (Fraction(0), Fraction(1))),
    (y ** 2 - y, [y], 1, (Fraction(0), Fraction(1))),
    (y ** 3, [y], 3, (Fraction(0), Fraction(1))),
    (y ** 3, [y - 1], 1, (Fraction(-1), Fraction(1))),
    (y ** 2, [y ** 2 + 1], 2, (Fraction(1), Fraction(1))),
]


@pytest.mark.parametrize("f,m,expected_c,expected_nu", CORPUS)
def test_hull_multiplicity_corpus(f, m, expected_c, expected_nu):
    ext = map_ext(f, m)
    report = hull_multiplicity(ext)
    assert report.multiplicity == expected_c
    assert tuple(ext.nu_dense()) == expected_nu


def test_identity_extension():
    ext = map_ext(y, [y])
    assert hull_multiplicity(ext).multiplicity == 1


def test_relation_style_parabola():
    XYv = ("x", "y")
    xx = SparsePoly.variable(XYv, 0)
    yy = SparsePoly.variable(XYv, 1)
    ext = CurveExtension(relation=yy ** 2 - xx, maximal_ideal=[xx, yy])
    report = hull_multiplicity(ext)
    assert report.multiplicity == 2
    assert tuple(ext.nu_dense()) == (Fraction(0), Fraction(1))


def test_relation_style_cuspidal_cubic():
    XYv = ("x", "y")
    xx = SparsePoly.variable(XYv, 0)
    yy = SparsePoly.variable(XYv, 1)
    ext = CurveExtension(relation=yy ** 2 - xx ** 3, maximal_ideal=[xx, yy])
    report = hull_multiplicity(ext)
    assert report.multiplicity == 2
    assert socle_growth_oracle(ext, 3) == [2, 4, 6]


def test_relation_must_be_monic():
    XYv = ("x", "y")
    xx = SparsePoly.variable(XYv, 0)
    yy = SparsePoly.variable(XYv, 1)
    with pytest.raises(ValueError):
        CurveExtension(relation=xx * yy ** 2 - 1, maximal_ideal=[xx, yy])


def test_not_maximal_rejected():
    with pytest.raises(NotMaximalError):
        map_ext(y ** 2, [y ** 2])  # (y^2) is primary, not maximal
    with pytest.raises(NotMaximalError):
        map_ext(y ** 2, [y * (y - 1)])  # two points


def test_stabilization_index():
    assert maximal_ideal_stabilization_index(map_ext(y ** 2, [y])) == 2
    assert maximal_ideal_stabilization_index(map_ext(y ** 3, [y])) == 3
    assert maximal_ideal_stabilization_index(map_ext(y ** 2 - y, [y])) == 1
    assert maximal_ideal_stabilization_index(map_ext(y ** 2, [y ** 2 + 1])) == 1


def test_socle_growth_squaring():
    # E = K[y,1/y]/K[y]; (0 : x^k) is spanned by y^-1..y^-2k
    assert socle_growth_oracle(map_ext(y ** 2, [y]), 3) == [2, 4, 6]


def test_socle_growth_identity():
    assert socle_growth_oracle(map_ext(y, [y]), 4) == [1, 2, 3, 4]


def test_socle_growth_cubing():
    assert socle_growth_oracle(map_ext(y ** 3, [y]), 2) == [3, 6]


def test_socle_growth_matches_multiplicity_slope():
    for f, m, c, nu in CORPUS:
        ext = map_ext(f, m)
        deg_nu = len(nu) - 1
        dims = socle_growth_oracle(ext, 4)
        assert dims == [c * k * deg_nu for k in range(1, 5)], (f.to_str(), dims)


def _count_quotients(monkeypatch):
    """The generator lists of the quotients of S built from now on."""
    built = []
    quotient = CurveExtension.quotient_algebra

    def counted(self, gens):
        built.append([g.to_str() for g in gens])
        return quotient(self, gens)

    monkeypatch.setattr(CurveExtension, "quotient_algebra", counted)
    return built


@pytest.mark.parametrize("f,m", [(y ** 2, [y]), (y ** 2, [y ** 2 + 1]),
                                 (y ** 3 - y ** 2 + 2, [y - 1])])
def test_one_extension_builds_s_mod_m_and_s_mod_nu_once(monkeypatch, f, m):
    built = _count_quotients(monkeypatch)
    ext = map_ext(f, m)
    report = hull_multiplicity(ext)
    nu = ext.nu_in_s().to_str()
    assert built == [[g.to_str() for g in m], [nu]]
    assert report.nu.to_str() == ext.nu_poly().to_str()
    # the socle-growth oracle reuses S/nu S and adds only S/m^B
    socle_growth_oracle(ext, 2)
    assert len(built) == 3 and built[:2] == [[g.to_str() for g in m], [nu]]


def test_socle_growth_oracle_reads_no_local_factor(monkeypatch):
    # criterion 8 compares the oracle with hull_multiplicity, so the oracle
    # must not reuse the decomposition of S/nu S
    ext = map_ext(y ** 3, [y])
    built = _count_quotients(monkeypatch)
    split = []
    monkeypatch.setattr("weylcas.hulls.decompose_local",
                        lambda *args: split.append(args) or decompose_local(*args))
    assert socle_growth_oracle(ext, 3) == [3, 6, 9]
    assert split == [] and len(built) == 2  # S/nu S and S/m^B
    assert "_nu_factors" not in vars(ext)


def test_truncation_error():
    with pytest.raises(TruncationError):
        socle_growth_oracle(map_ext(y ** 3, [y]), 6, truncation=10)


def test_truncation_above_the_limit_is_refused_before_anything_is_built(monkeypatch):
    # x -> y^2 at m = (y) to depth 150 once ran for seconds, and to 400 for over a minute
    ext = map_ext(y ** 2, [y])
    monkeypatch.setattr("weylcas.hulls.ideal_power", lambda *args: pytest.fail("built"))
    for truncation in (MAX_TRUNCATION + 1, 800):
        with pytest.raises(TruncationError, match=f"level {truncation} outside 1..{MAX_TRUNCATION}"):
            TruncatedHull(ext, truncation)
    with pytest.raises(TruncationError, match="level 0 outside"):
        TruncatedHull(ext, 0)
    # depth k needs truncation 2k here
    for k_max in (MAX_TRUNCATION // 2 + 1, 150, 400):
        with pytest.raises(TruncationError, match=f"outside 1..{MAX_TRUNCATION}"):
            socle_growth_oracle(ext, k_max)


def test_truncation_at_the_limit_is_accepted():
    hull = TruncatedHull(map_ext(y, [y]), MAX_TRUNCATION)
    assert hull.dim == MAX_TRUNCATION
    assert hull.socle_dims(3) == [1, 2, 3]
    assert socle_growth_oracle(map_ext(y ** 2, [y]), 3, truncation=MAX_TRUNCATION) == [2, 4, 6]


def test_socle_primary_annihilator_corpus():
    for f, m, _, _ in CORPUS:
        assert socle_matches_primary_annihilator(map_ext(f, m))


def test_ass_truncated_hull_corpus():
    for f, m, _, nu in CORPUS:
        ext = map_ext(f, m)
        hull = TruncatedHull(ext, 8)
        assert ass_truncated_hull(hull) == frozenset({nu})


def test_ass_simple_quotient():
    # S/m over R: killed by nu, nonzero
    ext = map_ext(y ** 2, [y])
    A = ext.residue_field_algebra()
    x_act = mult_matrix(A, A.to_vector(ext.x_image()))
    assert ass_finite_x_module(x_act) == frozenset({(Fraction(0), Fraction(1))})


def test_ass_dispatcher():
    """Associated primes of a truncated hull and of a finite module given by
    its x-action, each from its own function."""
    ext = map_ext(y ** 2, [y])
    assert ass_truncated_hull(TruncatedHull(ext, 6)) == frozenset({(Fraction(0), Fraction(1))})
    m = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert len(ass_finite_x_module(m)) == 2


def test_ass_finite_mixed_torsion():
    # K[x]/(x) + K[x]/(x-1): two associated primes
    m = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert ass_finite_x_module(m) == frozenset({
        (Fraction(0), Fraction(1)),
        (Fraction(-1), Fraction(1)),
    })


def companion(coeffs):
    """Companion matrix of the monic polynomial with the given low-to-high
    coefficients (leading 1 omitted): the action of x on Q[x]/(f)."""
    n = len(coeffs)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i, c in enumerate(coeffs):
        m[i][n - 1] = Fraction(-c)
    return m


def test_ass_finite_degree_five_product():
    # (x^2 + 1)(x^3 - 2) = x^5 + x^3 - 2x^2 - 2: two primes, not one
    primes = ass_finite_x_module(companion([-2, 0, -2, 1, 0]))
    assert primes == frozenset({
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(-2), Fraction(0), Fraction(0), Fraction(1)),
    })


# ---------- hulls over Artinian algebras ----------

def dual_numbers():
    return ArtinAlgebra.from_presentation(Y, [y ** 2])


def test_hull_of_socle_is_dual_of_algebra():
    A = dual_numbers()
    M = ArtinModule.regular(A)
    soc = M.socle()
    assert len(soc) == 1
    sub = M.submodule_closure(soc)
    # the socle as a module in its own right: restrict actions
    socmod = ArtinModule(A, [[[Fraction(0)]]], 1)
    result = essential_hull(A, socmod, decompose_local(A))
    assert result.module.dim == 2
    assert result.certificates["essential"]
    assert result.certificates["embedding_injective"]
    assert result.certificates["embedding_linear"]


def test_hull_of_regular_module_self_dual_case():
    A = dual_numbers()
    M = ArtinModule.regular(A)
    result = essential_hull(A, M, decompose_local(A))
    assert result.module.dim == 2
    assert all(result.certificates.values())


def test_hull_semisimple_point():
    A = ArtinAlgebra.from_presentation(Y, [y ** 2 - 1])
    # simple module at y = 1: one-dimensional, y acts by 1
    M = ArtinModule(A, [[[Fraction(1)]]], 1)
    result = essential_hull(A, M, decompose_local(A))
    assert result.module.dim == 1
    assert all(result.certificates.values())


def test_hull_multiplicities_match_socle():
    A = ArtinAlgebra.from_presentation(Y, [y ** 4])
    M = ArtinModule.regular(A)
    factors = decompose_local(A)
    result = essential_hull(A, M, factors)
    assert result.multiplicities == socle_multiplicities(A, M, factors)
    assert result.module.dim == 4


def test_hull_direct_sum_multiplicity_two():
    A = dual_numbers()
    reg = ArtinModule.regular(A)
    two = ArtinModule(
        A,
        [_block_diag(var_actions(reg)[0], var_actions(reg)[0])],
        4,
    )
    result = essential_hull(A, two, decompose_local(A))
    assert result.module.dim == 4
    assert result.multiplicities == [2]
    assert all(result.certificates.values())


def _block_diag(a, b):
    n, m = len(a), len(b)
    out = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b[i][j]
    return out


def test_ass_preserved_by_hull():
    # Ass_R(M) = Ass_R(E(M)) with R acting through a distinguished element
    A = ArtinAlgebra.from_presentation(Y, [y ** 3 - y ** 2])
    a_r = A.to_vector(y)  # distinguished image of x
    M = ArtinModule.regular(A)
    hull = essential_hull(A, M, decompose_local(A))
    ass_m = ass_finite_x_module(M.action_of_vector(a_r))
    ass_e = ass_finite_x_module(hull.module.action_of_vector(a_r))
    assert ass_m == ass_e
    assert ass_m == frozenset({(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))})


def test_indecomposable_hull_unique_prime():
    # hull of a module inside the dual of a single local factor: unique
    # maximal associated prime, already associated to the module
    A = ArtinAlgebra.from_presentation(Y, [y ** 3])
    M = ArtinModule.regular(A)
    hull = essential_hull(A, M, decompose_local(A))
    a_r = A.to_vector(y)
    ass_e = ass_finite_x_module(hull.module.action_of_vector(a_r))
    ass_m = ass_finite_x_module(M.action_of_vector(a_r))
    assert len(ass_e) == 1
    assert ass_e == ass_m


def test_quotient_module_construction():
    A = ArtinAlgebra.from_presentation(Y, [y ** 3])
    M = ArtinModule.regular(A)
    sub = M.submodule_closure([A.to_vector(y ** 2)])
    Q = M.quotient_by(sub)
    assert Q.dim == 2
    hull = essential_hull(A, Q, decompose_local(A))
    assert all(hull.certificates.values())


def test_quotient_by_rejects_unstable_subspace():
    # in Q[y]/(y^3) the line through 1 is not an ideal: y * 1 = y leaves it
    A = ArtinAlgebra.from_presentation(Y, [y ** 3])
    M = ArtinModule.regular(A)
    with pytest.raises(ValueError, match="not stable"):
        M.quotient_by([A.one()])


def test_quotient_by_matches_rref_projection_oracle():
    # the quotient acts on the non-pivot coordinates as the projection read
    # off the rref of the subspace says, whatever the pivots are
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    A = ArtinAlgebra.from_presentation(XY, [(xx - 3) ** 3, (xx + yy) ** 2 - 4])
    M = ArtinModule.regular(A)
    seeds = [A.to_vector(p) for p in (xx - 3, (xx - 3) ** 2, xx + yy - 2, (xx - 3) * (xx + yy - 2))]
    seeds.append([Fraction(c) for c in (-2, -1, -1, 2, -1, 1)])
    dims = []
    for seed in seeds:
        sub = M.submodule_closure([seed])
        project, complement = _quotient_projection(sub, A.dim)
        expected = [linalg.transpose([project(linalg.mat_vec(m, linalg.unit_vector(A.dim, c)))
                                      for c in complement])
                    for m in var_actions(M)]
        Q = M.quotient_by(sub)
        assert var_actions(Q) == expected
        dims.append(Q.dim)
    assert dims == [2, 4, 3, 4, 1]


def test_quotient_by_rejects_wrong_length_vector():
    M = ArtinModule.regular(ArtinAlgebra.from_presentation(Y, [y ** 3]))
    with pytest.raises(ValueError, match="length 2"):
        M.quotient_by([[Fraction(0), Fraction(1)]])


def test_submodule_closure_rejects_wrong_length_vector():
    M = ArtinModule.regular(ArtinAlgebra.from_presentation(Y, [y ** 3]))
    with pytest.raises(ValueError, match="length 4"):
        M.submodule_closure([[Fraction(0)] * 3, [Fraction(1)] * 4])


def test_monomial_action_prefix_cache_matches_products_from_identity():
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    A = ArtinAlgebra.from_presentation(XY, [xx ** 3 - yy, yy ** 2])
    for M in (ArtinModule.regular(A), ArtinModule.regular(A).dual()):
        for e in [(0, 0), (2, 1), (1, 0), (0, 2), (3, 1), (2, 2)]:
            m = linalg.identity(M.dim)
            for i, k in enumerate(e):
                for _ in range(k):
                    m = linalg.mat_mul(var_actions(M)[i], m)
            assert M.monomial_action(e) == m


def test_action_of_vector_is_the_sum_of_scaled_monomial_actions():
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    for A in (ArtinAlgebra.from_presentation(XY, [xx ** 3 - yy, yy ** 2]),
              # monomial actions with denominators
              ArtinAlgebra.from_presentation(XY, [(xx - third) ** 2 * (xx + 2),
                                                  (yy - seventh * xx) ** 2 - Fraction(5, 11) * xx])):
        vectors = [[Fraction(i * j % 5 - 2, j + 1) for j in range(A.dim)] for i in range(4)]
        vectors += [[Fraction(0)] * A.dim, [1] + [0] * (A.dim - 1)]
        for M in (ArtinModule.regular(A), ArtinModule.regular(A).dual()):
            for v in vectors:
                action = M.action_of_vector(v)
                assert action == old_action_of_vector(M, v)
                assert exact_rule(action)


def test_action_of_vector_refuses_a_vector_of_the_wrong_length():
    # both once answered the identity on Q[x,y]/(x^2, xy, y^2)
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    M = ArtinModule.regular(ArtinAlgebra.from_presentation(XY, [xx ** 2, xx * yy, yy ** 2]))
    for v in ([1, 0, 0, 5], [1]):
        with pytest.raises(ValueError):
            M.action_of_vector(v)
    assert M.action_of_vector([1, 0, 0]) == linalg.identity(3)


def test_artin_module_refuses_actions_of_the_wrong_count_or_shape():
    # once refused only later, by IndexError in action_of_vector or inside mat_mul
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    A = ArtinAlgebra.from_presentation(XY, [xx ** 2, yy ** 2])
    two = [[1, 0], [0, 1]]
    for actions, dim in (([linalg.identity(4)], 4), ([two, two], 3),
                         ([linalg.identity(4), [[1, 0, 0, 0]] * 3 + [[1]]], 4)):
        with pytest.raises(ValueError):
            ArtinModule(A, actions, dim)
    M = ArtinModule(A, var_matrices(A), 4)
    assert M.action_of_vector(A.one()) == linalg.identity(4)


def test_artin_module_refuses_actions_where_the_ideal_does_not_act_as_zero():
    # once accepted, and essential_hull then ended in "empty cover for a nonzero module"
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    A = ArtinAlgebra.from_presentation(XY, [xx ** 2, yy ** 2])
    with pytest.raises(ValueError, match="x\\^2 in the ideal does not act as zero"):
        ArtinModule(A, [linalg.identity(2), linalg.zeros(2, 2)], 2)
    # x acts as 0 and y as a nonzero nilpotent: a module, the simple one twice over
    M = ArtinModule(A, [linalg.zeros(2, 2), [[0, 0], [1, 0]]], 2)
    assert essential_hull(A, M, decompose_local(A)).certificates == {
        "embedding_injective": True, "embedding_linear": True, "essential": True}


def test_artin_module_refuses_actions_that_do_not_commute():
    # both square to zero, as x^2 and y^2 ask, but xy != yx
    XY = ("x", "y")
    xx, yy = SparsePoly.variable(XY, 0), SparsePoly.variable(XY, 1)
    A = ArtinAlgebra.from_presentation(XY, [xx ** 2, yy ** 2])
    with pytest.raises(ValueError, match="the actions of x and y do not commute"):
        ArtinModule(A, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], 2)


# ---------- nu from one Krylov sequence ----------

def _seeded_extensions():
    """Map-style extensions at rational points and at irreducible
    quadratics, and relation-style ones at rational points and at points
    over Q(sqrt(2)), all seeded."""
    rng = random.Random("nu-krylov")
    XYv = ("x", "y")
    xx, yy = SparsePoly.variable(XYv, 0), SparsePoly.variable(XYv, 1)
    out = []
    for _ in range(12):
        f = sum((rng.randint(-3, 3) * y ** k for k in range(rng.randint(1, 4))),
                SparsePoly.zero(Y)) + rng.choice([1, 2, -1]) * y ** rng.randint(1, 4)
        if f.total_degree() < 1:
            f = f + y
        r = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        m = rng.choice([[y - r], [y ** 2 - rng.choice([2, 3, 5])], [y ** 2 + y + 1]])
        out.append(map_ext(f, m))
    for _ in range(6):
        a, b = Fraction(rng.randint(-3, 3), rng.choice([1, 2])), rng.randint(-3, 3)
        c1, c2 = rng.randint(-2, 2), rng.choice([1, -1, 2])
        # y^2 + c1 x y + c2 x^3 + c0 with (a, b) on the curve
        h = yy ** 2 + c1 * xx * yy + c2 * xx ** 3
        h = h - (b ** 2 + c1 * a * b + c2 * a ** 3)
        out.append(CurveExtension(relation=h, maximal_ideal=[xx - a, yy - b]))
        # (y - x)(y + c) + e (x^2 - 2) vanishes on m = (x^2 - 2, y - x)
        h = (yy - xx) * (yy + rng.randint(-3, 3)) + rng.randint(1, 3) * (xx ** 2 - 2)
        out.append(CurveExtension(relation=h, maximal_ideal=[xx ** 2 - 2, yy - xx]))
    return out


def test_nu_is_the_minimal_polynomial_of_the_action_of_x():
    """nu, the annihilator of 1 under x, against minimal_polynomial of x's
    multiplication matrix on S/m, the path nu was once computed by."""
    exts = [map_ext(f, m) for f, m, _, _ in CORPUS] + _seeded_extensions()
    degrees = set()
    for ext in exts:
        A = ext.residue_field_algebra()
        expected = linalg.minimal_polynomial(mult_matrix(A, A.to_vector(ext.x_image())))
        assert ext.nu_dense() == expected, ext
        assert exact_rule(ext.nu_dense()) and ext.nu_dense()[-1] == 1
        degrees.add(len(expected) - 1)
    assert len(exts) == 5 + 24 and degrees >= {1, 2}

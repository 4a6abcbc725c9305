from itertools import product

import pytest

from weylcas.groebner import Ideal
from weylcas.localcoh import (
    BiPrincipalMV,
    CechComplex,
    cech_cohomology_piece,
    gamma_dstable_check,
    gamma_torsion_cyclic,
    gamma_torsion_localization,
    minimalize_monomials,
    mv_connecting_biprincipal,
    mv_dimension_check,
)
from weylcas.poly import SparsePoly

XY = ("x", "y")
x = SparsePoly.variable(XY, 0)
y = SparsePoly.variable(XY, 1)


def test_minimalize():
    assert minimalize_monomials([(1, 0), (2, 0), (1, 1)]) == [(1, 0)]
    assert minimalize_monomials([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]


def test_top_cohomology_of_maximal_ideal():
    # H^2_(x,y) piece at (-1,-1) is K
    assert cech_cohomology_piece([(1, 0), (0, 1)], 2, (-1, -1)) == 1
    assert cech_cohomology_piece([(1, 0), (0, 1)], 2, (0, -1)) == 0


def test_h1_of_maximal_ideal_vanishes():
    cech = CechComplex(2, [(1, 0), (0, 1)])
    for d in product(range(-4, 4), repeat=2):
        assert cech.cohomology_dim(1, d) == 0
        assert cech.cohomology_dim(0, d) == 0


def test_principal_piece():
    # H^1_(x)(R) at (-1, 3): R_x/R has a class there
    assert cech_cohomology_piece([(1, 0)], 1, (-1, 3)) == 1
    assert cech_cohomology_piece([(1, 0)], 1, (0, 3)) == 0


def test_h0_vanishes_for_nonzero_ideal():
    for gens in ([(1, 0)], [(1, 1)], [(2, 0), (0, 3)]):
        cech = CechComplex(2, gens)
        for d in product(range(-3, 3), repeat=2):
            assert cech.cohomology_dim(0, d) == 0


def test_d_compose_d_zero_on_pieces():
    cech = CechComplex(2, [(1, 0), (0, 1), (1, 1)])
    from weylcas import linalg

    for d in product(range(-3, 3), repeat=2):
        for t in range(cech.r - 1):
            a = cech.differential(t, d)
            b = cech.differential(t + 1, d)
            if a and b and a[0]:
                assert linalg.is_zero_matrix(linalg.mat_mul(b, a))


def test_maximal_ideal_three_vars_profile():
    cech = CechComplex(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for d in product(range(-3, 2), repeat=3):
        for i in range(3):
            assert cech.cohomology_dim(i, d) == 0
        expected = 1 if all(c <= -1 for c in d) else 0
        assert cech.cohomology_dim(3, d) == expected


def test_mv_dimension_check_x_y():
    window = [(-3, 3), (-3, 3)]
    report = mv_dimension_check([(1, 0)], [(0, 1)], window)
    assert report["all_alternating_sums_zero"]
    entry = report["degrees"][(-1, -1)]
    assert entry["sum"][2] == 1
    assert entry["cap"][1] == 1
    assert entry["I"][1] == 0 and entry["J"][1] == 0


def test_mv_dimension_check_equal_ideals():
    report = mv_dimension_check([(1, 0)], [(1, 0)], [(-3, 3), (-3, 3)])
    assert report["all_alternating_sums_zero"]


def test_mv_dimension_check_nested():
    report = mv_dimension_check([(1, 0)], [(1, 1)], [(-3, 3), (-3, 3)])
    assert report["all_alternating_sums_zero"]


def test_mv_dimension_check_corpus():
    pairs = [
        ([(1, 0)], [(0, 1)]),
        ([(2, 0)], [(0, 1)]),
        ([(1, 0)], [(1, 1)]),
        ([(1, 1)], [(0, 2)]),
        ([(1, 0), (0, 1)], [(1, 1)]),
        ([(2, 0), (0, 2)], [(1, 1)]),
        ([(1, 0)], [(2, 1)]),
        ([(1, 2)], [(2, 1)]),
        ([(1, 0), (0, 2)], [(0, 1)]),
        ([(3, 0)], [(0, 3)]),
    ]
    window = [(-3, 3), (-3, 3)]
    for i_gens, j_gens in pairs:
        report = mv_dimension_check(i_gens, j_gens, window)
        assert report["all_alternating_sums_zero"], (i_gens, j_gens)


def test_connecting_iso_on_deep_piece():
    mv = BiPrincipalMV((1, 0), (0, 1), 2)
    seq = mv.sequence_at((-1, -1))
    # H^1_(xy) -> H^2(F): both one-dimensional, delta nonzero
    assert seq["HC"][1].h_dim == 1
    assert seq["HF"][2].h_dim == 1
    assert seq["delta"][1] != [[0]]
    assert any(any(c != 0 for c in row) for row in seq["delta"][1])


def test_fibre_oracle_x_y():
    mv = BiPrincipalMV((1, 0), (0, 1), 2)
    for d in product(range(-3, 3), repeat=2):
        assert mv.fibre_matches_sum_cech(d)


def test_exactness_equal_generators():
    mv = BiPrincipalMV((1, 0), (1, 0), 2)
    for d in product(range(-3, 3), repeat=2):
        assert mv.exact_at(d)
        seq = mv.sequence_at(d)
        for t in range(2):
            assert all(all(c == 0 for c in row) for row in seq["delta"][t])


@pytest.mark.parametrize("f,g", [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (1, 1))])
def test_mv_connecting_full_report(f, g):
    report = mv_connecting_biprincipal(f, g, [(-3, 3), (-3, 3)])
    assert report["h_oracle_matches"]
    assert report["long_sequence_exact"]
    assert report["delta_d_linear"]


def test_mv_connecting_degenerate_window_rejected():
    from weylcas.koszul import GradedModuleModel, ext1_koszul, koszul_h1_window
    from weylcas.localcoh import WindowMarginError

    with pytest.raises(WindowMarginError):
        mv_connecting_biprincipal((1, 0), (0, 1), [(0, 0), (-3, 3)])
    # Koszul Ext^1 and H_1 raise the same class on an empty window
    with pytest.raises(WindowMarginError):
        ext1_koszul([x], GradedModuleModel.polynomial(XY), (1, 0))
    with pytest.raises(WindowMarginError):
        koszul_h1_window([x, y], (3, 1))
    # an empty sequence is refused with a message, not an IndexError
    with pytest.raises(ValueError, match="nonempty sequence"):
        koszul_h1_window([], (0, 3))
    with pytest.raises(ValueError, match="nonempty sequence"):
        ext1_koszul([], GradedModuleModel.polynomial(XY), (0, 3))


def test_gamma_cyclic_example():
    R = XY
    J = Ideal(R, [x ** 2 * y])
    I = Ideal(R, [x])
    sat = gamma_torsion_cyclic(J, I)
    assert sat.equals(Ideal(R, [y]))


def test_gamma_cyclic_domain():
    J = Ideal(XY, [])
    I = Ideal(XY, [x])
    assert gamma_torsion_cyclic(J, I).is_zero()


def test_gamma_localization_is_torsion_free():
    # R_x has no (y)-torsion and no (x)-torsion: the ring is a domain
    window = [(-3, 3), (-3, 3)]
    for gens in ([(0, 1)], [(1, 0)], [(0, 0)]):
        if gens == [(0, 0)]:
            continue
        out = gamma_torsion_localization((1, 0), gens, window)
        assert all(v == 0 for v in out.values())


def test_gamma_mod_r_x_torsion():
    # R_x/R is entirely (x)-torsion
    window = [(-3, 3), (-3, 3)]
    out = gamma_torsion_localization((1, 0), [(1, 0)], window, mod_r=True)
    for d, v in out.items():
        expected = 1 if d[0] < 0 and d[1] >= 0 else 0
        assert v == expected


def test_gamma_mod_r_y_torsion_empty():
    out = gamma_torsion_localization((1, 0), [(0, 1)], [(-3, 3), (-3, 3)], mod_r=True)
    assert all(v == 0 for v in out.values())


def test_gamma_dstable_listed_examples():
    window = [(-4, 4), (-4, 4)]
    # M = R_x, I = (y): torsion is 0, trivially stable
    assert gamma_dstable_check((1, 0), [(0, 1)], window)["stable"]
    # I = (x), M = R_x: torsion 0, trivially stable
    assert gamma_dstable_check((1, 0), [(1, 0)], window)["stable"]


def test_gamma_dstable_mod_r_nontrivial():
    window = [(-4, 4), (-4, 4)]
    report = gamma_dstable_check((1, 0), [(1, 0)], window, mod_r=True)
    assert report["stable"]
    assert report["torsion_count"] > 0


def test_gamma_dstable_mixed_monomial():
    report = gamma_dstable_check((1, 1), [(1, 1)], [(-4, 4), (-4, 4)], mod_r=True)
    assert report["stable"]
    assert report["torsion_count"] > 0


# (f, g, window) -> report of mv_connecting_biprincipal before fibre_at and
# sequence_at were memoised per degree
MV_REPORTS = [
    ((1, 0), (1, 2), 9, (1, 2)),
    ((1, 2), (0, 2), 9, (1, 2)),
    ((2, 1), (0, 2), 9, (2, 2)),
    ((2, 0), (2, 2), 9, (2, 2)),
    ((1, 0, 0), (0, 2, 0), 61, (1, 2, 0)),
]


def _seeded_monomial_pairs():
    import random

    rng = random.Random(7)
    pairs = []
    for n in (2, 2, 2, 2, 3):
        f = g = (0,) * n
        while not any(f) or not any(g):
            f = tuple(rng.randint(0, 2) for _ in range(n))
            g = tuple(rng.randint(0, 2) for _ in range(n))
        pairs.append((f, g))
    return pairs


def test_mv_connecting_reports_unchanged_by_memo(monkeypatch):
    built = []
    build = BiPrincipalMV._build_sequence

    def counted(self, d):
        built.append((self, d))  # holds the instance, so ids stay distinct
        return build(self, d)

    monkeypatch.setattr(BiPrincipalMV, "_build_sequence", counted)
    pairs = _seeded_monomial_pairs()
    assert pairs == [(f, g) for f, g, _, _ in MV_REPORTS]
    for f, g, skipped, lcm in MV_REPORTS:
        report = mv_connecting_biprincipal(f, g, [(-2, 2)] * len(f))
        assert report == {
            "h_oracle_matches": True,
            "long_sequence_exact": True,
            "delta_d_linear": True,
            "boundary_degrees_skipped": skipped,
            "lcm": lcm,
        }
    # one build per distinct degree of each instance
    keys = [(id(mv), d) for mv, d in built]
    assert len(keys) == len(set(keys))


def test_memoised_sequence_matches_fresh_build():
    mv = BiPrincipalMV((2, 1), (0, 2), 2)
    for d in product(range(-2, 3), repeat=2):
        assert mv.delta_commutes_with_partials(d)
    for d in product(range(-3, 3), repeat=2):
        cached = mv.sequence_at(d)
        assert mv.sequence_at(list(d)) is cached
        assert mv.fibre_at(d) is mv.fibre_at(list(d))
        fresh = BiPrincipalMV((2, 1), (0, 2), 2).sequence_at(d)
        for name in ("HF", "HM", "HC"):
            assert [p.h_dim for p in cached[name]] == [p.h_dim for p in fresh[name]]
        for name in ("rho", "pi", "delta"):
            assert cached[name] == fresh[name]

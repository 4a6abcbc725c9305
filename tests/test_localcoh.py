import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import (
    PerDegreeCech,
    PerDegreeMV,
    old_gamma_dstable_check,
    old_gamma_torsion_localization,
    old_mv_connecting_biprincipal,
    old_mv_dimension_check,
)
from weylcas.groebner import Ideal
from weylcas.koszul import GradedModuleModel, negative_support
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
    window_degrees,
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
    # one build per sign pattern of each instance: at most 2^n
    keys = [(id(mv), pattern) for mv, pattern in built]
    assert len(keys) == len(set(keys))
    instances = {id(mv): mv for mv, _ in built}
    for key, count in Counter(id(mv) for mv, _ in built).items():
        assert count <= 2 ** instances[key].nvars


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


# ---------- one build per sign pattern, checked against the per-degree path ----------

WINDOWS = {1: (-3, 2), 2: (-2, 2), 3: (-2, 1), 4: (-1, 1)}  # each reaches every pattern


def _monomial(rng, n, top=2):
    while True:
        e = tuple(rng.randint(0, top) for _ in range(n))
        if any(e):
            return e


def _window(n):
    return [WINDOWS[n]] * n


def _cech_corpus():
    """Two seeded generator lists for each of 1-4 variables and 1-4 generators."""
    rng = random.Random(606)
    return [(n, [_monomial(rng, n) for _ in range(r)])
            for n in (1, 2, 3, 4) for r in (1, 2, 3, 4) for _ in range(2)]


def _pair_corpus(seed, count, sizes=(1, 2)):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 1 + i % 4
        out.append((n, [_monomial(rng, n) for _ in range(rng.choice(sizes))],
                    [_monomial(rng, n) for _ in range(rng.choice(sizes))]))
    return out


def test_cech_matches_per_degree_oracle():
    for n, gens in _cech_corpus():
        cech, old = CechComplex(n, gens), PerDegreeCech(n, gens)
        for d in product(*(range(lo, hi + 1) for lo, hi in _window(n))):
            for i in range(len(gens) + 1):
                assert cech.cohomology_dim(i, d) == old.cohomology_dim(i, d), (gens, i, d)
            for t in range(len(gens)):
                assert cech.differential(t, d) == old.differential(t, d), (gens, t, d)


def _rank(rows):
    """Rank over Q of a list of rows, by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _hochster_dim(gens, i, pattern):
    """dim of reduced H^(i-2)(Delta_N; Q) for Delta_N = {T : supp(m_T) does not
    contain N}, the complex of inactive subsets.  A face of k generators has
    simplicial dimension k - 1, so the empty face sits in degree -1; a void
    Delta_N (N empty) has no cohomology at all."""
    support = {T: {j for a in T for j, x in enumerate(gens[a]) if x > 0}
               for k in range(len(gens) + 1) for T in combinations(range(len(gens)), k)}
    faces = [[T for T in combinations(range(len(gens)), k) if not pattern <= support[T]]
             for k in range(len(gens) + 1)]

    def coboundary_rank(k):
        """Rank of the map from cochains on k-faces to cochains on (k+1)-faces."""
        if not 0 <= k < len(gens) or not faces[k] or not faces[k + 1]:
            return 0
        return _rank([[(-1) ** T2.index(next(iter(set(T2) - set(T)))) if set(T) < set(T2) else 0
                       for T in faces[k]] for T2 in faces[k + 1]])

    k = i - 1
    if not 0 <= k <= len(gens):
        return 0
    return len(faces[k]) - coboundary_rank(k) - coboundary_rank(k - 1)


def test_cech_matches_hochster_formula():
    for n, gens in _cech_corpus():
        cech = CechComplex(n, gens)
        for signs in product((0, 1), repeat=n):
            pattern = frozenset(j for j, s in enumerate(signs) if s)
            for d in (tuple(-1 if s else 0 for s in signs), tuple(-3 if s else 2 for s in signs)):
                assert negative_support(d) == pattern
                for i in range(len(gens) + 1):
                    assert cech.cohomology_dim(i, d) == _hochster_dim(gens, i, pattern), \
                        (gens, i, d)


def test_hochster_formula_on_known_pieces():
    # H^2_(x,y) is K at (-1,-1) only; H^1_(x) at (-1, 3)
    assert _hochster_dim([(1, 0), (0, 1)], 2, frozenset({0, 1})) == 1
    assert _hochster_dim([(1, 0), (0, 1)], 2, frozenset({1})) == 0
    assert _hochster_dim([(1, 0)], 1, frozenset({0})) == 1
    assert _hochster_dim([(1, 0)], 1, frozenset()) == 0


def test_mv_dimension_check_matches_per_degree_oracle():
    for n, i_gens, j_gens in _pair_corpus(11, 24, sizes=(1, 2, 3)):
        report = mv_dimension_check(i_gens, j_gens, _window(n))
        assert report == old_mv_dimension_check(i_gens, j_gens, _window(n)), (i_gens, j_gens)
        # every degree has its own entry and columns, not shared ones
        ids = [id(x) for e in report["degrees"].values()
               for x in (e, e["sum"], e["I"], e["J"], e["cap"])]
        assert len(ids) == len(set(ids))


def test_mv_connecting_matches_per_degree_oracle():
    for n, (f,), (g,) in _pair_corpus(12, 12, sizes=(1,)):
        window = _window(n) if n < 4 else [(-1, 0)] * 4
        report = mv_connecting_biprincipal(f, g, window)
        assert report == old_mv_connecting_biprincipal(f, g, window), (f, g)
        mv, old = BiPrincipalMV(f, g, n), PerDegreeMV(f, g, n)
        for d in product(*(range(lo, hi + 1) for lo, hi in window)):
            assert mv.fibre_at(d) == old.fibre_at(d), (f, g, d)
            seq, ref = mv.sequence_at(d), old.sequence_at(d)
            for name in ("HF", "HM", "HC"):
                assert [p.h_dim for p in seq[name]] == [p.h_dim for p in ref[name]]
            for name in ("rho", "pi", "delta"):
                assert seq[name] == ref[name], (f, g, d, name)


def test_gamma_matches_per_degree_oracle():
    rng = random.Random(13)
    for i in range(24):
        n = 1 + i % 3
        f = tuple(rng.randint(0, 2) for _ in range(n))
        i_gens = [_monomial(rng, n) for _ in range(rng.randint(1, 3))]
        window = [(-3, 3)] * n
        for mod_r in (False, True):
            assert (gamma_torsion_localization(f, i_gens, window, mod_r)
                    == old_gamma_torsion_localization(f, i_gens, window, mod_r))
            assert (gamma_dstable_check(f, i_gens, window, mod_r)
                    == old_gamma_dstable_check(f, i_gens, window, mod_r))


def test_model_pieces_are_a_pattern():
    for n in (1, 2, 3):
        names = tuple(f"x{i + 1}" for i in range(n))
        for signs in product("+-", repeat=n):
            model = GradedModuleModel(names, "".join(signs))
            for d in product(range(-3, 3), repeat=n):
                expected = all((x >= 0) if s == "+" else (x <= -1) for x, s in zip(d, signs))
                assert model.contains(d) == expected
        for model in (GradedModuleModel.polynomial(names),
                      GradedModuleModel.top_local_cohomology(names)):
            for t in range(-6, 5):
                box = product(range(-abs(t) - n, abs(t) + n + 1), repeat=n)
                assert sorted(model.basis_of_total_degree(t)) == sorted(
                    d for d in box if sum(d) == t and model.contains(d))


@pytest.mark.parametrize("call,lengths", [
    (lambda: CechComplex(2, [(1, 0), (0, 1)]).cohomology_dim(2, (-1,)), (1, 2)),
    (lambda: CechComplex(2, [(1, 0), (0, 1)]).cohomology_dim(2, (-1, -1, 5)), (3, 2)),
    (lambda: mv_dimension_check([(1, 0, 0)], [(0, 1, 0)], [(-1, 1), (-1, 1)], nvars=3),
     (2, 3)),
    (lambda: mv_connecting_biprincipal((1, 0, 0), (0, 1, 0), [(-1, 1), (-1, 1)], nvars=3),
     (2, 3)),
    (lambda: gamma_torsion_localization((1, 0), [(1, 0, 0)], [(-2, 2), (-2, 2)]), (3, 2)),
], ids=["short-degree", "long-degree", "mv-window", "mv-connecting-window", "gamma-generator"])
def test_wrong_length_is_refused(call, lengths):
    # a degree of the wrong length would alias a real sign pattern
    with pytest.raises(ValueError, match="got %d coordinates for a ring in %d variables" % lengths):
        call()


def test_one_build_per_sign_pattern(monkeypatch):
    builds = Counter()
    for cls, name in ((CechComplex, "_build"), (BiPrincipalMV, "_build_sequence")):
        def counted(self, pattern, _build=getattr(cls, name)):
            builds[id(self)] += 1
            return _build(self, pattern)
        monkeypatch.setattr(cls, name, counted)
    for n in (1, 2, 3):
        window = [(-3, 3)] * n
        cech = CechComplex(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        for d in window_degrees(window):
            for i in range(n + 1):
                cech.cohomology_dim(i, d)
        assert builds[id(cech)] == 2 ** n
        mv = BiPrincipalMV(tuple([1] + [0] * (n - 1)), tuple([0] * (n - 1) + [2]), n)
        for d in window_degrees(window):
            mv.exact_at(d)
            mv.delta_commutes_with_partials(d)
        assert builds[id(mv)] == 2 ** n

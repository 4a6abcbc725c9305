import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import (
    OldCohPiece,
    PerDegreeCech,
    PerDegreeMV,
    minimalize_monomials,
    old_gamma_dstable_check,
    old_gamma_torsion_localization,
    old_mv_connecting_biprincipal,
    old_mv_dimension_check,
    same_ideal,
)
from weylcas import linalg, localcoh
from weylcas.groebner import Ideal, saturation
from weylcas.koszul import GradedModuleModel
from weylcas.cli import main
from weylcas.localcoh import (
    CechComplex,
    CohPiece,
    MayerVietoris,
    cech_cohomology_piece,
    gamma_dstable_check,
    gamma_torsion_localization,
    mv_connecting_biprincipal,
    mv_dimension_check,
    negative_support,
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
    mv = MayerVietoris(2, [(1, 0)], [(0, 1)])
    seq = mv._sequence(frozenset({0, 1}))
    # H^1_(xy) -> H^2_(x,y): both one-dimensional, delta nonzero
    assert seq["H"]["cap"][1].h_dim == 1
    assert seq["H"]["sum"][2].h_dim == 1
    assert seq["delta"][1] != [[0]]
    assert any(any(c != 0 for c in row) for row in seq["delta"][1])


def test_fibre_oracle_x_y():
    # the I + J column, Sigma(x) cap Sigma(y), is the Cech complex of (x, y)
    mv, cech = MayerVietoris(2, [(1, 0)], [(0, 1)]), CechComplex(2, [(1, 0), (0, 1)])
    for d in product(range(-3, 3), repeat=2):
        sums = mv._sequence(negative_support(d))["H"]["sum"]
        assert [p.h_dim for p in sums] == [cech.cohomology_dim(i, d) for i in range(3)]


def test_exactness_equal_generators():
    mv = MayerVietoris(2, [(1, 0)], [(1, 0)])
    for N in _patterns(2):
        assert mv.exact_at(N)
        for t in range(3):
            assert all(all(c == 0 for c in row) for row in mv._sequence(N)["delta"][t])


@pytest.mark.parametrize("f,g", [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (1, 1))])
def test_mv_connecting_full_report(f, g):
    report = mv_connecting_biprincipal(f, g, [(-3, 3), (-3, 3)])
    assert report["h_oracle_matches"]
    assert report["long_sequence_exact"]
    assert report["delta_d_linear"]


def test_mv_connecting_degenerate_window_rejected():
    from weylcas.koszul import ext1_koszul, koszul_h1_window
    from weylcas.localcoh import WindowMarginError

    # an empty window would pass every check vacuously
    for call in (lambda w: mv_connecting_biprincipal((1, 0), (0, 1), w),
                 lambda w: mv_dimension_check([(1, 0), (0, 1)], [(0, 1)], w),
                 lambda w: gamma_dstable_check((1, 0), [(1, 0)], w, mod_r=True),
                 lambda w: gamma_torsion_localization((1, 0), [(1, 0)], w)):
        with pytest.raises(WindowMarginError, match="empty window"):
            call([(0, 0), (3, 1)])
    # a one-degree window is a window
    assert mv_connecting_biprincipal((1, 0), (0, 1), [(0, 0), (-3, 3)])["delta_d_linear"]
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
    sat = saturation(J, I)
    assert same_ideal(sat, Ideal(R, [y]))


def test_gamma_cyclic_domain():
    J = Ideal(XY, [])
    I = Ideal(XY, [x])
    assert saturation(J, I).is_zero()


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


# (f, g, lcm): mv_connecting_biprincipal passes every check on these
MV_REPORTS = [
    ((1, 0), (1, 2), (1, 2)),
    ((1, 2), (0, 2), (1, 2)),
    ((2, 1), (0, 2), (2, 2)),
    ((2, 0), (2, 2), (2, 2)),
    ((1, 0, 0), (0, 2, 0), (1, 2, 0)),
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
    build = MayerVietoris._build_sequence

    def counted(self, d):
        built.append((self, d))  # holds the instance, so ids stay distinct
        return build(self, d)

    monkeypatch.setattr(MayerVietoris, "_build_sequence", counted)
    pairs = _seeded_monomial_pairs()
    assert pairs == [(f, g) for f, g, _ in MV_REPORTS]
    for f, g, lcm in MV_REPORTS:
        report = mv_connecting_biprincipal(f, g, [(-2, 2)] * len(f))
        assert report == {
            "h_oracle_matches": True,
            "long_sequence_exact": True,
            "delta_d_linear": True,
            "lcm": lcm,
        }
    # one build per sign pattern of each instance: at most 2^n
    keys = [(id(mv), pattern) for mv, pattern in built]
    assert len(keys) == len(set(keys))
    instances = {id(mv): mv for mv, _ in built}
    for key, count in Counter(id(mv) for mv, _ in built).items():
        assert count <= 2 ** instances[key].nvars


def test_memoised_sequence_matches_fresh_build():
    mv = MayerVietoris(2, [(2, 1)], [(0, 2)])
    for N in _patterns(2):
        for j in N:
            assert mv.delta_commutes_with_x(N, j)
    for d in product(range(-3, 3), repeat=2):
        N = negative_support(d)
        cached = mv._sequence(N)
        assert mv._sequence(frozenset(N)) is cached
        assert mv._at(N) is mv._at(frozenset(N))
        fresh = MayerVietoris(2, [(2, 1)], [(0, 2)])._sequence(N)
        for name in ("sum", "I", "J", "cap"):
            assert ([p.h_dim for p in cached["H"][name]]
                    == [p.h_dim for p in fresh["H"][name]])
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
    # the differentials live on faces, not on generator subsets, so only
    # the dimensions compare; d o d = 0 on faces is checked above
    for n, gens in _cech_corpus():
        cech, old = CechComplex(n, gens), PerDegreeCech(n, gens)
        for d in product(*(range(lo, hi + 1) for lo, hi in _window(n))):
            for i in range(len(gens) + 1):
                assert cech.cohomology_dim(i, d) == old.cohomology_dim(i, d), (gens, i, d)


def _face_corpus():
    """Seeded generator lists in 1-4 variables with repeated, non-minimal
    and non-squarefree generators, some with more generators than
    variables."""
    rng = random.Random(2121)
    corpus = []
    for k in range(40):
        n = 1 + k % 4
        gens = [_monomial(rng, n, top=3) for _ in range(rng.randint(1, n + 2))]
        gens.append(rng.choice(gens))  # a repeated generator
        base = rng.choice(gens)
        gens.append(tuple(x + rng.randint(0, 2) for x in base))  # a multiple of one
        corpus.append((n, gens))
    return corpus


def test_face_dims_match_per_degree_oracle():
    kinds = Counter()
    for n, gens in _face_corpus():
        cech, old = CechComplex(n, gens), PerDegreeCech(n, gens)
        kinds["r > n"] += len(gens) > n
        kinds["not squarefree"] += any(x > 1 for e in gens for x in e)
        supports = [frozenset(j for j, x in enumerate(e) if x) for e in gens]
        for N in _patterns(n):  # N empty included
            kinds["inside every support"] += bool(N) and all(N <= S for S in supports)
            for d in (tuple(-1 if j in N else 0 for j in range(n)),
                      tuple(-3 if j in N else 2 for j in range(n))):
                dims, diffs = old.complex_at(d)
                assert ([cech.cohomology_dim(i, d) for i in range(len(gens) + 1)]
                        == [linalg.cohomology_dim(dims, [linalg.rank(m) for m in diffs], i)
                            for i in range(len(gens) + 1)]), \
                    (gens, d)
    assert all(kinds[k] for k in ("r > n", "not squarefree", "inside every support"))


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


def test_each_face_coboundary_is_ranked_once(monkeypatch):
    # once per level beside it, each coboundary was ranked twice: 5 calls here
    ranked = []
    original = linalg.rank

    def counting(a):
        ranked.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "rank", counting)
    gens = [(1, 1, 0, 0), (0, 0, 1, 1)]
    d = (-1, -1, -1, -1)
    cech = CechComplex(4, gens)
    h = [cech.cohomology_dim(i, d) for i in range(3)]
    assert ranked == [cech.differential(t, d) for t in range(4)]
    assert h == [PerDegreeCech(4, gens).cohomology_dim(i, d) for i in range(3)] == [0, 0, 1]


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


def _padded(column, length):
    assert not any(column[length:])
    return column[:length] + [0] * (length - len(column))


def test_mv_dimension_check_matches_per_degree_oracle():
    # the columns list H^0..H^n; the oracle's list H^0..H^r for the largest
    # generator count r, so the shorter one is padded with zeros
    for n, i_gens, j_gens in _pair_corpus(11, 24, sizes=(1, 2, 3)):
        report = mv_dimension_check(i_gens, j_gens, _window(n))
        ref = old_mv_dimension_check(i_gens, j_gens, _window(n))
        assert report["all_alternating_sums_zero"] == ref["all_alternating_sums_zero"]
        assert report["degrees"].keys() == ref["degrees"].keys()
        for d, entry in report["degrees"].items():
            old = ref["degrees"][d]
            assert entry["alternating_sum"] == old["alternating_sum"]
            for name in ("sum", "I", "J", "cap"):
                assert len(entry[name]) == n + 1
                length = max(n + 1, len(old[name]))
                assert _padded(entry[name], length) == _padded(old[name], length), \
                    (i_gens, j_gens, d, name)
        # every degree has its own entry and columns, not shared ones
        ids = [id(x) for e in report["degrees"].values()
               for x in (e, e["sum"], e["I"], e["J"], e["cap"])]
        assert len(ids) == len(set(ids))


def test_mv_connecting_matches_per_degree_oracle():
    for n, (f,), (g,) in _pair_corpus(12, 12, sizes=(1,)):
        window = _window(n) if n < 4 else [(-1, 0)] * 4
        report = mv_connecting_biprincipal(f, g, window)
        ref = old_mv_connecting_biprincipal(f, g, window)
        assert {key: report[key] for key in ref} == ref, (f, g)
        assert report["delta_d_linear"], (f, g)
        mv, old = MayerVietoris(n, [f], [g]), PerDegreeMV(f, g, n)
        for d in product(*(range(lo, hi + 1) for lo, hi in window)):
            seq, ref = mv._sequence(negative_support(d)), old.sequence_at(d)
            H = seq["H"]
            # the fibre F plays the part of I + J, the middle M of I (+) J
            # and the complex C(lcm) of I cap J; past H^2(F) all are zero
            dims = {"HF": [p.h_dim for p in H["sum"]],
                    "HM": [a.h_dim + b.h_dim for a, b in zip(H["I"], H["J"])],
                    "HC": [p.h_dim for p in H["cap"]]}
            for name, pieces in dims.items():
                assert pieces == _padded([p.h_dim for p in ref[name]], n + 1), (f, g, d, name)
            for name in ("rho", "pi", "delta"):
                ranks = [linalg.rank(m) for m in seq[name]]
                assert ranks == _padded([linalg.rank(ref[name][t]) for t in range(2)], n + 1), \
                    (f, g, d, name)


def test_mv_on_faces_is_exact_and_d_linear_for_general_pairs():
    for n, i_gens, j_gens in _pair_corpus(21, 40, sizes=(1, 2, 3, 4)):
        mv = MayerVietoris(n, i_gens, j_gens)
        for N in _patterns(n):
            assert mv.exact_at(N), (i_gens, j_gens, N)
            assert all(mv.delta_commutes_with_x(N, j) for j in N), (i_gens, j_gens, N)


def _change_of_basis(old_piece, new_piece):
    """C with old coordinates = C * new coordinates: the old classes of the
    new lifts.  It is invertible when both pieces describe the same H."""
    assert old_piece.h_dim == new_piece.h_dim
    c = [[old_piece.class_of(z)[i] for z in new_piece.lifts] for i in range(old_piece.h_dim)]
    assert linalg.rank(c) == new_piece.h_dim
    return c


def _random_complex(rng, dims):
    """Integer differentials d_t: Q^dims[t] -> Q^dims[t+1] with d_t d_(t-1) = 0:
    the rows of d_t are random combinations of the left kernel of d_(t-1)."""
    diffs = []
    for t in range(len(dims) - 1):
        n = dims[t]
        if t and dims[t - 1]:
            left = linalg.nullspace(linalg.transpose(diffs[-1]))
        else:
            left = [linalg.unit_vector(n, i) for i in range(n)]
        diffs.append([_combination(rng, left, n) for _ in range(dims[t + 1])])
    return diffs


def _combination(rng, vectors, n):
    coeffs = [rng.randint(-2, 2) for _ in vectors]
    return [sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0)) for j in range(n)]


def test_cohomology_piece_matches_old_coordinates():
    rng = random.Random(909)
    for _ in range(60):
        dims = [rng.randint(0, 4) for _ in range(4)]
        diffs = _random_complex(rng, dims)
        for t in range(len(dims)):
            new, old = CohPiece(dims, diffs, t), OldCohPiece(dims, diffs, t)
            assert new.h_dim == linalg.cohomology_dim(dims, [linalg.rank(m) for m in diffs], t)
            c = _change_of_basis(old, new)
            for j, z in enumerate(new.lifts):
                assert new.class_of(z) == linalg.unit_vector(new.h_dim, j)
            # random cocycles convert by C; boundaries have class 0
            cocycles = (linalg.nullspace(diffs[t]) if t < len(diffs) and diffs[t]
                        else [linalg.unit_vector(dims[t], i) for i in range(dims[t])])
            for _ in range(3):
                v = _combination(rng, cocycles, dims[t])
                assert old.class_of(v) == linalg.mat_vec(c, new.class_of(v))
            if t and dims[t - 1]:
                for b in linalg.transpose(diffs[t - 1]):
                    assert new.class_of(b) == [Fraction(0)] * new.h_dim


def test_cohomology_piece_refuses_bad_input():
    # not a complex: d1 d0 = 1 != 0, so the boundary is no cocycle
    with pytest.raises(RuntimeError, match="boundary outside the cocycles"):
        CohPiece([1, 1, 1], [[[Fraction(1)]], [[Fraction(1)]]], 1)
    # H^1 of Q --0--> Q^2 --(1 1)--> Q: (1, 0) is no cocycle
    piece = CohPiece([1, 2, 1], [[[Fraction(0)], [Fraction(0)]], [[Fraction(1), Fraction(1)]]], 1)
    assert piece.h_dim == 1
    with pytest.raises(RuntimeError, match="vector is not a cocycle"):
        piece.class_of([Fraction(1), Fraction(0)])


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
        # R is nonzero at pattern {}, H^n_m at the pattern of all variables
        for model, pattern in ((GradedModuleModel.polynomial(names), frozenset()),
                               (GradedModuleModel.top_local_cohomology(names),
                                frozenset(range(n)))):
            for t in range(-6, 5):
                box = product(range(-abs(t) - n, abs(t) + n + 1), repeat=n)
                assert sorted(model.piece(t)[0]) == sorted(
                    d for d in box if sum(d) == t and negative_support(d) == pattern)


@pytest.mark.parametrize("call,match", [
    (lambda: CechComplex(2, [(1, 0), (0, 1)]).cohomology_dim(2, (-1,)),
     "got 1 coordinates for a ring in 2 variables"),
    (lambda: CechComplex(2, [(1, 0), (0, 1)]).cohomology_dim(2, (-1, -1, 5)),
     "got 3 coordinates for a ring in 2 variables"),
    # the window sets the ring: 2 variables, which 3-variable generators do not fit
    (lambda: mv_dimension_check([(1, 0, 0)], [(0, 1, 0)], [(-1, 1), (-1, 1)]),
     r"bad monomial exponent \(1, 0, 0\)"),
    (lambda: mv_connecting_biprincipal((1, 0, 0), (0, 1, 0), [(-1, 1), (-1, 1)]),
     r"bad monomial exponent \(1, 0, 0\)"),
    (lambda: gamma_torsion_localization((1, 0), [(1, 0, 0)], [(-2, 2), (-2, 2)]),
     "got 3 coordinates for a ring in 2 variables"),
], ids=["short-degree", "long-degree", "mv-window", "mv-connecting-window", "gamma-generator"])
def test_wrong_length_is_refused(call, match):
    # a degree of the wrong length would alias a real sign pattern
    with pytest.raises(ValueError, match=match):
        call()


def test_one_build_per_sign_pattern(monkeypatch):
    builds = Counter()
    for cls, name in ((CechComplex, "_build"), (MayerVietoris, "_build_sequence")):
        def counted(self, pattern, _build=getattr(cls, name)):
            builds[self] += 1
            return _build(self, pattern)
        monkeypatch.setattr(cls, name, counted)
    for n in (1, 2, 3):
        window = [(-3, 3)] * n
        cech = CechComplex(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        for d in window_degrees(window):
            for i in range(n + 1):
                cech.cohomology_dim(i, d)
        assert builds[cech] == 2 ** n
        mv = MayerVietoris(n, [tuple([1] + [0] * (n - 1))], [tuple([0] * (n - 1) + [2])])
        for d in window_degrees(window):
            mv.exact_at(negative_support(d))
        for N in _patterns(n):
            for j in N:
                mv.delta_commutes_with_x(N, j)
        assert builds[mv] == 2 ** n


def _patterns(n):
    return [frozenset(N) for k in range(n + 1) for N in combinations(range(n), k)]


def test_one_x_square_per_pattern_and_variable(monkeypatch):
    squares = []
    square = MayerVietoris.delta_commutes_with_x

    def counted(self, N, j):
        squares.append((N, j))
        return square(self, N, j)

    monkeypatch.setattr(MayerVietoris, "delta_commutes_with_x", counted)
    # (-2, -1) and (0, 2) reach one pattern each
    for n, window in product((1, 2, 3), [(-3, 3), (-1, 0), (-2, -1), (0, 2)]):
        squares.clear()
        report = mv_connecting_biprincipal(tuple([1] + [0] * (n - 1)),
                                           tuple([0] * (n - 1) + [2]), [window] * n)
        assert report["delta_d_linear"]
        patterns = {negative_support(d) for d in window_degrees([window] * n)}
        # once each (N, j), j in N: sum of |N| squares over the window's patterns
        assert Counter(squares) == Counter((N, j) for N in patterns for j in N)


# the bi-principal pairs of acceptance criterion 12, all in 2 variables
CRITERION_12_PAIRS = [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (1, 1))]
THREE_VARIABLE_PAIR = ((1, 1, 0), (0, 1, 1))


def _with_delta_doubled(monkeypatch, pattern, t):
    """Every sequence built at `pattern` carries 2 * delta^t: still exact,
    but no longer the connecting map of the other patterns' squares."""
    build = MayerVietoris._build_sequence

    def perturbed(self, N):
        seq = build(self, N)
        if N == pattern:
            seq["delta"][t] = [[2 * x for x in row] for row in seq["delta"][t]]
        return seq

    monkeypatch.setattr(MayerVietoris, "_build_sequence", perturbed)


@pytest.mark.parametrize("pattern", [frozenset({0, 2}), frozenset({0, 1, 2})],
                         ids=["N=02", "N=012"])
def test_perturbed_delta_is_not_d_linear(monkeypatch, pattern):
    f, g = THREE_VARIABLE_PAIR
    assert mv_connecting_biprincipal(f, g, [(-2, 2)] * 3)["delta_d_linear"]
    _with_delta_doubled(monkeypatch, pattern, 1)
    report = mv_connecting_biprincipal(f, g, [(-2, 2)] * 3)
    assert not report["delta_d_linear"]
    # the perturbation keeps every rank, so only the square can see it
    assert report["h_oracle_matches"] and report["long_sequence_exact"]
    mv = MayerVietoris(3, [f], [g])
    assert not mv.delta_commutes_with_x(frozenset({0, 1, 2}), 1)


@pytest.mark.parametrize("f,g", CRITERION_12_PAIRS)
def test_two_variable_squares_are_degenerate(monkeypatch, f, g):
    # on faces as on the old fibre, no square of these pairs is nonzero on
    # both sides, so doubling any delta goes unseen: the 3-variable pair
    # above is the one that can fail
    for pattern in _patterns(2):
        for t in range(3):
            monkeypatch.undo()
            _with_delta_doubled(monkeypatch, pattern, t)
            assert mv_connecting_biprincipal(f, g, [(-3, 3)] * 2)["delta_d_linear"]


@pytest.mark.parametrize("call", [
    lambda: CechComplex(1, [(-1,)]).cohomology_dim(1, (-2,)),
    lambda: CechComplex(2, [(1, -1)]).cohomology_dim(1, (-2, 0)),
    lambda: cech_cohomology_piece([(1, 0), (0, -2)], 2, (-1, -1)),
    lambda: MayerVietoris(2, [(1, 0)], [(0, -1)]),
    lambda: mv_dimension_check([(1, 0)], [(-1, 1)], [(-1, 1), (-1, 1)]),
    lambda: mv_connecting_biprincipal((1, -1), (0, 1), [(-2, 2), (-2, 2)]),
    lambda: gamma_torsion_localization((1, -1), [(1, 0)], [(-2, 2), (-2, 2)], mod_r=True),
    lambda: gamma_torsion_localization((1, 0), [(0, 1), (2, -1)], [(-2, 2), (-2, 2)]),
    lambda: gamma_dstable_check((-1, 1), [(1, 1)], [(-2, 2), (-2, 2)], mod_r=True),
], ids=["cech-1var", "cech-2var", "cech-piece", "biprincipal", "mv-dimension",
        "mv-connecting", "gamma-f", "gamma-generator", "gamma-dstable"])
def test_negative_exponent_is_refused(call):
    # a generator exponent with a negative entry names no monomial of S
    with pytest.raises(ValueError, match="negative entry in monomial exponent"):
        call()


def test_gamma_dstable_check_rejects_wrong_torsion_marks(monkeypatch):
    # f = x1*x2, I = (x1), mod R: the torsion classes are those of pattern {0}
    f, i_gens, window = (1, 1), [(1, 0)], [(-4, 4), (-4, 4)]
    true = gamma_torsion_localization(f, i_gens, window, mod_r=True)
    assert {negative_support(d) for d, v in true.items() if v} == {frozenset({0})}
    assert gamma_dstable_check(f, i_gens, window, mod_r=True)["stable"]

    def marks(*patterns):
        wrong = {d: int(negative_support(d) in patterns) for d in true}
        monkeypatch.setattr(localcoh, "gamma_torsion_localization", lambda *args: wrong)
        return gamma_dstable_check(f, i_gens, window, mod_r=True)

    # {{1}} is D-stable (it is Gamma of (x2)), but it leaves x^(-1, -4)
    # unmarked although x1 maps it into the marks, to x^(0, -4)
    report = marks(frozenset({1}))
    assert not report["stable"] and report["failure"] == ((-1, -4), "I")
    # {{0, 1}} alone is not D-stable: x_j moves a class with d_j = -1 out
    report = marks(frozenset({0, 1}))
    assert not report["stable"]
    d, step = report["failure"]
    assert step[0] == "x" and d[int(step[1:]) - 1] == -1
    assert marks(frozenset({0}))["stable"]


def test_cech_reads_each_degree_pattern_once(monkeypatch):
    calls = Counter()
    real = localcoh._pattern

    def counting(d, nvars):
        calls[tuple(d)] += 1
        return real(d, nvars)

    monkeypatch.setattr(localcoh, "_pattern", counting)
    cech = CechComplex(2, [(1, 0), (0, 1)])
    calls.clear()
    degrees = list(window_degrees([(-2, 2), (-2, 2)]))
    for d in degrees:
        assert [cech.cohomology_dim(i, d) for i in range(3)] == [
            0, 0, int(d[0] < 0 and d[1] < 0)]
    assert set(calls) == set(degrees) and set(calls.values()) == {1}
    for bad in ((-1,), (-1, -1, 5)):
        with pytest.raises(ValueError, match="coordinates for a ring in 2 variables"):
            cech.cohomology_dim(2, bad)


# ---------- many generators: the face complex has at most 2^n faces ----------

def _timed_main(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    return code, capsys.readouterr().out, time.perf_counter() - start


@pytest.mark.parametrize("k", [12, 14, 20])
def test_many_generator_piece_answers_in_a_second(capsys, k):
    # x1^i * x2^(k-1-i), i < k: 2^k generator subsets, one face {1, 2}
    ideal = ",".join(f"x1^{i}*x2^{k - 1 - i}" for i in range(k))
    code, out, elapsed = _timed_main(
        capsys, ["lc-piece", "--ideal", ideal, "--i", "2", "--degree", "-1,-1"])
    assert code == 0 and out == "1\n"
    assert elapsed < 1.0, elapsed
    if k == 12:
        old = PerDegreeCech(2, [(i, k - 1 - i) for i in range(k)])
        assert int(out) == old.cohomology_dim(2, (-1, -1))


def test_six_plus_six_generator_mv_answers_in_a_second(capsys):
    i_gens = ",".join(f"x1^{i}*x2^{5 - i}*x3" for i in range(6))
    j_gens = ",".join(f"x1^{i + 1}*x3^{6 - i}" for i in range(6))
    code, out, elapsed = _timed_main(
        capsys, ["lc-mv", "--i-gens", i_gens, "--j-gens", j_gens, "--window", "-1..0"])
    assert code == 0 and out == "alternating sums vanish: True\n"
    assert elapsed < 1.0, elapsed


def test_negative_face_level_is_refused():
    # a negative level would index the coboundaries from the end: level -1
    # read as the coboundary from level 1
    cech = CechComplex(2, [(1, 1)])
    with pytest.raises(ValueError, match="face level -1 out of range"):
        cech.differential(-1, (-1, -1))
    assert cech.differential(1, (-1, -1)) == [[-1, 1]]

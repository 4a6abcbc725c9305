"""The acceptance suite: every exit criterion as a deterministic check.

Each criterion function returns (passed, detail).  All randomness is
seeded, every assertion is exact (no tolerances anywhere), and the whole
battery is sized to finish well under a minute.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .artin import ArtinAlgebra, decompose_local
from .groebner import Ideal
from .hulls import (
    ArtinModule,
    CurveExtension,
    TruncatedHull,
    ass_finite_x_module,
    ass_truncated_hull,
    essential_hull,
    socle_growth_oracle,
    socle_multiplicities,
    hull_multiplicity,
)
from .koszul import (
    GradedModuleModel,
    KoszulComplex,
    build_psi_inductive,
    ext1_koszul,
    is_regular_sequence,
    koszul_h1_window,
    koszul_matrix,
    psi_w_check,
)
from .localcoh import (
    CechComplex,
    gamma_dstable_check,
    mv_connecting_biprincipal,
    mv_dimension_check,
)
from .ore import DiffOp, OreRing, verify_star
from .poly import SparsePoly


def _random_poly(rng, variables, max_degree, n_terms):
    terms = {}
    n = len(variables)
    for _ in range(n_terms):
        e = [0] * n
        for _ in range(rng.randrange(max_degree + 1)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(rng.randint(-5, 5))
    return SparsePoly(variables, terms)


def _random_diffop(rng, ring, max_order, max_degree, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        alpha = [0] * ring.n_ops
        for _ in range(rng.randrange(max_order + 1)):
            alpha[rng.randrange(ring.n_ops)] += 1
        c = _random_poly(rng, ring.vars, max_degree, 2)
        if not c.is_zero():
            terms[tuple(alpha)] = c
    return DiffOp(ring, terms, "left")


def _rewrite_normal_form(factors: list[DiffOp], form: str = "left") -> DiffOp:
    """Normal form of a product of operators by the bare rewrite rule

        op_k * a  ->  a * op_k + delta_k(a)

    which moves every polynomial left past the operators (form "left"), or,
    read as a * op_k -> op_k * a - delta_k(a), right (form "right").  Each
    step branches in two, so the cost is exponential in the operator order:
    this is the independent reference for the closed formula in ore.py,
    never a production path.  A word lists its factors left to right: a
    SparsePoly, or an int k for op_k.
    """
    ring = factors[0].ring
    words = [[]]
    for f in factors:
        expanded = []
        for w in words:
            for alpha, c in f.terms.items():
                ops = [k for k, e in enumerate(alpha) for _ in range(e)]
                expanded.append(w + ([c] + ops if f.form == "left" else ops + [c]))
        words = expanded
    left = form == "left"
    first, second = (int, SparsePoly) if left else (SparsePoly, int)
    out = {}
    while words:
        w = words.pop()
        i = next((i for i in range(len(w) - 1)
                  if isinstance(w[i], first) and isinstance(w[i + 1], second)), None)
        if i is None:
            coeff = SparsePoly.one(ring.vars)
            alpha = [0] * ring.n_ops
            for x in w:
                if isinstance(x, int):
                    alpha[x] += 1
                else:
                    coeff = coeff * x
            alpha = tuple(alpha)
            out[alpha] = out.get(alpha, SparsePoly.zero(ring.vars)) + coeff
            continue
        k, a = (w[i], w[i + 1]) if left else (w[i + 1], w[i])
        words.append(w[:i] + ([a, k] if left else [k, a]) + w[i + 2:])
        d = ring.delta(k, a)
        if not d.is_zero():
            words.append(w[:i] + [d if left else -d] + w[i + 2:])
    return DiffOp(ring, out, form)


def _same_normal_form(s: DiffOp, t: DiffOp) -> bool:
    return s.form == t.form and s.terms == t.terms


def criterion_1_normal_form_round_trip(seed: int = 0):
    """500 random Weyl elements: to_right(s) matches the rewrite rule and
    to_left(to_right(s)) = s exactly."""
    rng = random.Random(seed)
    rings = [OreRing.weyl(tuple(f"x{i+1}" for i in range(n))) for n in (1, 2, 3)]
    checked = 0
    for i in range(500):
        ring = rings[i % 3]
        s = _random_diffop(rng, ring, 5, 5)
        right = s.to_right()
        if not _same_normal_form(right, _rewrite_normal_form([s], "right")):
            return False, f"right normal form disagrees with the rewrite rule for {s!r}"
        if right.to_left().terms != s.to_left().terms:
            return False, f"round trip failed for {s!r}"
        checked += 1
    return True, f"{checked} round trips exact"


def criterion_2_commutation_closed_form(seed: int = 0):
    """g^m a equals its rewrite-rule normal form for g = d1, m = 1..6."""
    rng = random.Random(seed)
    ring = OreRing.weyl(("x1", "x2"))
    d1 = DiffOp.operator(ring, 0)
    checked = 0
    for _ in range(50):
        a = DiffOp.from_poly(ring, _random_poly(rng, ring.vars, 5, 3))
        for m in range(1, 7):
            lhs = (d1 ** m) * a
            ref = _rewrite_normal_form([DiffOp.operator(ring, 0, m), a])
            if not _same_normal_form(lhs, ref):
                return False, f"identity failed for m={m}, a={a.to_str()}"
            checked += 1
    return True, f"{checked} instances exact"


def criterion_3_ore_power_formula(seed: int = 0):
    """X^n a equals its rewrite-rule normal form for two derivations."""
    rng = random.Random(seed)
    vars_ = ("x",)
    x = SparsePoly.variable(vars_, 0)
    rings = [
        OreRing.differential_polynomial(vars_, [SparsePoly.one(vars_)]),
        OreRing.differential_polynomial(vars_, [x * x]),
    ]
    checked = 0
    for ring in rings:
        X = DiffOp.operator(ring, 0)
        for n in range(1, 6):
            for _ in range(20):
                a = DiffOp.from_poly(ring, _random_poly(rng, vars_, 4, 3))
                lhs = (X ** n) * a
                ref = _rewrite_normal_form([DiffOp.operator(ring, 0, n), a])
                if not _same_normal_form(lhs, ref):
                    return False, f"identity failed for n={n}, a={a.to_str()}"
                checked += 1
    return True, f"{checked} instances exact"


def criterion_4_star_bound(seed: int = 0):
    """verify_star stays within operator order + 1 on 30 operators, and the
    pair I=(x1), s=d1 lands exactly on 2."""
    rng = random.Random(seed)
    ring = OreRing.weyl(("x1", "x2"))
    x1 = SparsePoly.variable(ring.vars, 0)
    x2 = SparsePoly.variable(ring.vars, 1)
    ideals = [
        Ideal(ring.vars, [x1]),
        Ideal(ring.vars, [x1 * x2]),
        Ideal(ring.vars, [x1, x2]),
        Ideal(ring.vars, [x1 ** 2]),
        Ideal(ring.vars, [x1 ** 2, x2]),
    ]
    checked = 0
    while checked < 30:
        s = _random_diffop(rng, ring, 4, 2, 2)
        if s.is_zero():
            continue
        I = ideals[checked % len(ideals)]
        m = s.op_order()
        r = verify_star(I, s, m + 1)  # raises if the bound fails
        if r > m + 1:
            return False, f"bound violated: r={r} > {m + 1}"
        checked += 1
    specific = verify_star(Ideal(ring.vars, [x1]), DiffOp.operator(ring, 0), 3)
    if specific != 2:
        return False, f"(I=(x1), s=d1) gave r={specific}, expected 2"
    return True, f"{checked} operators within the order+1 bound; specific case r=2"


def criterion_5_koszul_identities(seed: int = 0):
    """d o d = 0 (g <= 5), psi_g w_g = 0 (g <= 5), inductive block matches
    the exterior construction (g <= 6)."""
    rng = random.Random(seed)
    vars6 = tuple(f"x{i+1}" for i in range(3))
    for g in range(2, 6):
        a = [_random_poly(rng, vars6, 2, 3) + SparsePoly.one(vars6) for _ in range(g)]
        if not KoszulComplex(a, "right").composes_to_zero():
            return False, f"d o d != 0 for g={g}"
        if not KoszulComplex(a, "left").composes_to_zero():
            return False, f"d o d != 0 (left) for g={g}"
        e = [_random_poly(rng, vars6, 2, 2) for _ in range(2)]
        if not psi_w_check(a, e):
            return False, f"psi_g w_g != 0 for g={g}"
    gens6 = [SparsePoly.variable(tuple(f"x{i+1}" for i in range(6)), i) + i
             for i in range(6)]
    for g in range(2, 7):
        mat, perm, signs = build_psi_inductive(gens6[:g])
        exterior = koszul_matrix(gens6[:g], 2, "right")
        for i, row in enumerate(mat):
            ref = exterior[perm[i]]
            if not all(p == (q if signs[i] == 1 else -q) for p, q in zip(row, ref)):
                return False, f"inductive/exterior mismatch at g={g}"
        if sorted(perm) != list(range(len(exterior))):
            return False, f"permutation not bijective at g={g}"
    return True, "compositions vanish, psi*w vanishes, block construction matches"


def _regularity_corpus():
    XY = ("x", "y")
    XYZ = ("x", "y", "z")
    x2, y2 = (SparsePoly.variable(XY, i) for i in range(2))
    x3, y3, z3 = (SparsePoly.variable(XYZ, i) for i in range(3))
    return [
        [x2], [x2 * y2], [x2 ** 2],
        [x2, y2], [x2 + y2, x2 - y2], [x2 ** 2, y2 ** 2], [x2, y2 ** 2],
        [x2 ** 2 + y2 ** 2, x2 * y2], [x2 + y2, y2 ** 2],
        [x2, x2], [x2 * y2, x2 ** 2], [x2, x2 * y2], [x2 ** 2, x2 * y2],
        [x3, y3, z3], [x3 + y3, y3 + z3, z3],
        [x3 * y3, x3 * z3], [x3, y3 * z3], [x3 ** 2, y3 ** 2, z3 ** 2],
        [x3 * y3, y3 * z3, x3 * z3], [x3 + y3 + z3, y3 - z3],
    ]


def criterion_6_regularity_cross_validation(seed: int = 0):
    """Colon-ideal regularity equals windowed Koszul H_1 vanishing on 20
    homogeneous sequences."""
    corpus = _regularity_corpus()
    assert len(corpus) == 20
    for seq in corpus:
        verdict, _ = is_regular_sequence(seq)
        top = sum(f.total_degree() for f in seq) + 2
        h1 = koszul_h1_window(seq, (0, top))
        koszul_verdict = all(v == 0 for v in h1.values())
        if verdict != koszul_verdict:
            return False, (
                f"disagreement on {[f.to_str() for f in seq]}: "
                f"colon={verdict}, koszul={koszul_verdict}"
            )
    return True, "20 sequences: colon-ideal and Koszul H_1 verdicts agree"


def criterion_7_injectivity_profile(seed: int = 0):
    """Ext^1 vanishes against the hull models for every homogeneous regular
    sequence of entry degree <= 2, and is nonzero for E = R with a = (x)."""
    X1 = ("x",)
    x = SparsePoly.variable(X1, 0)
    hull1 = GradedModuleModel.top_local_cohomology(X1)
    for seq in ([x], [x ** 2]):
        dims = ext1_koszul(seq, hull1, (-6, 4))
        if any(dims.values()):
            return False, f"Ext^1 != 0 for {[f.to_str() for f in seq]} on K[x,1/x]/K[x]"
    XY = ("x", "y")
    xx, yy = (SparsePoly.variable(XY, i) for i in range(2))
    hull2 = GradedModuleModel.top_local_cohomology(XY)
    sequences = [
        [xx], [yy], [xx ** 2], [xx * yy], [xx + yy],
        [xx, yy], [xx + yy, xx - yy], [xx ** 2, yy ** 2], [xx, yy ** 2],
        [xx ** 2 + yy ** 2, xx * yy], [xx + yy, yy ** 2], [xx ** 2, xx * yy + yy ** 2],
    ]
    for seq in sequences:
        ok, _ = is_regular_sequence(seq)
        if not ok:
            return False, f"corpus sequence {[f.to_str() for f in seq]} is not regular"
        dims = ext1_koszul(seq, hull2, (-7, 3))
        if any(dims.values()):
            return False, f"Ext^1 != 0 for {[f.to_str() for f in seq]} on the H^2 model"
    witness = ext1_koszul([x], GradedModuleModel.polynomial(X1), (-4, 4))
    if not any(witness.values()):
        return False, "Ext^1(R/(x), R) vanished: non-injectivity witness missing"
    return True, "hull models injective on the corpus; R itself is not"


def _hull_corpus():
    Y = ("y",)
    y = SparsePoly.variable(Y, 0)
    return [
        (y ** 2, [y], 2),
        (y ** 2 - y, [y], 1),
        (y ** 3, [y], 3),
        (y ** 3, [y - 1], 1),
        (y ** 2, [y ** 2 + 1], 2),
    ]


def criterion_8_hull_multiplicity(seed: int = 0):
    """hull_multiplicity matches the socle-growth slope on the corpus:
    dim(0 : nu^k) = c * k * deg(nu) for k = 1..6."""
    for f, m, expected_c in _hull_corpus():
        ext = CurveExtension(structural_map=f, maximal_ideal=m)
        report = hull_multiplicity(ext)
        if report.multiplicity != expected_c:
            return False, f"{f.to_str()}: c={report.multiplicity}, expected {expected_c}"
        deg_nu = report.nu.total_degree()
        dims = socle_growth_oracle(ext, 6)
        expected = [expected_c * k * deg_nu for k in range(1, 7)]
        if dims != expected:
            return False, f"{f.to_str()}: socle growth {dims} != {expected}"
    return True, "c = (2, 1, 3, 1, 2) and all socle slopes match through k = 6"


def _random_zero_dim_ideal(rng, variables):
    gens = []
    n = len(variables)
    for lead_var in range(n):
        lead_deg = rng.randint(1, 5)
        e = [0] * n
        e[lead_var] = lead_deg
        terms = {tuple(e): Fraction(1)}
        for _ in range(rng.randint(0, 3)):
            tot = rng.randrange(max(lead_deg, 1))
            i = rng.randrange(tot + 1)
            mono = [0] * n
            mono[0], mono[1] = i, tot - i
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + Fraction(rng.randint(-3, 3))
        gens.append(SparsePoly(variables, terms))
    return Ideal(variables, gens)


def criterion_9_decomposition_soundness(seed: int = 0):
    """100 random zero-dimensional ideals: factor dimensions sum to the
    total; idempotents orthogonal and summing to 1 (exact)."""
    rng = random.Random(seed)
    XY = ("x", "y")
    done = 0
    while done < 100:
        I = _random_zero_dim_ideal(rng, XY)
        A = ArtinAlgebra(I)
        if A.dim == 0:
            continue
        factors = decompose_local(A)
        if sum(f.dim for f in factors) != A.dim:
            return False, f"dimension mismatch for {I!r}"
        total = [Fraction(0)] * A.dim
        for f in factors:
            if A.mult(f.idempotent, f.idempotent) != f.idempotent:
                return False, f"non-idempotent for {I!r}"
            total = [a + b for a, b in zip(total, f.idempotent)]
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if any(c != 0 for c in A.mult(factors[i].idempotent,
                                              factors[j].idempotent)):
                    return False, f"non-orthogonal idempotents for {I!r}"
        if total != A.one():
            return False, f"idempotents do not sum to 1 for {I!r}"
        done += 1
    return True, "100 decompositions sound (dims, orthogonality, partition of 1)"


def _random_artin_module(rng, A):
    """A quotient of the regular module by a random submodule, or the
    regular module itself, or its dual."""
    M = ArtinModule.regular(A)
    roll = rng.randrange(4)
    if roll == 0:
        return M
    if roll == 1:
        return M.dual()
    seedvec = [Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
    if all(c == 0 for c in seedvec):
        seedvec[rng.randrange(A.dim)] = Fraction(1)
    sub = M.submodule_closure([seedvec])
    if len(sub) == M.dim:
        return M
    return M.quotient_by(sub)


def criterion_10_ass_and_essentiality(seed: int = 0):
    """Ass of the truncated hull is {nu} for the corpus; hulls over random
    Artinian algebras are essential with Ass(M) = Ass(E) on 50 instances."""
    for f, m, _ in _hull_corpus():
        ext = CurveExtension(structural_map=f, maximal_ideal=m)
        hull = TruncatedHull(ext, 8)
        expected = frozenset({tuple(ext.nu_dense())})
        if ass_truncated_hull(hull) != expected:
            return False, f"Ass of the hull of {f.to_str()} is not {{nu}}"
    rng = random.Random(seed)
    XY = ("x", "y")
    done = 0
    singles_checked = 0
    while done < 50:
        I = _random_zero_dim_ideal(rng, XY)
        A = ArtinAlgebra(I)
        if A.dim == 0 or A.dim > 12:
            continue
        M = _random_artin_module(rng, A)
        if M.dim == 0:
            continue
        factors = decompose_local(A)
        result = essential_hull(A, M, factors)
        if not all(result.certificates.values()):
            return False, f"hull certificates failed for {I!r}: {result.certificates}"
        if result.multiplicities != socle_multiplicities(A, M, factors):
            return False, f"hull multiplicities disagree with the socle for {I!r}"
        a_r = A.to_vector(
            SparsePoly.variable(XY, 0) + rng.randint(0, 2) * SparsePoly.variable(XY, 1)
        )
        ass_m = ass_finite_x_module(M.action_of_vector(a_r))
        ass_e = ass_finite_x_module(result.module.action_of_vector(a_r))
        if ass_m != ass_e:
            return False, f"Ass(M) != Ass(E) for {I!r}"
        if len(factors) == 1:
            # indecomposable setting: unique (maximal) associated prime
            if len(ass_e) != 1:
                return False, f"indecomposable hull with several primes for {I!r}"
            singles_checked += 1
        done += 1
    return True, (
        f"corpus hulls have Ass = {{nu}}; 50 hull instances essential with "
        f"matching Ass ({singles_checked} indecomposable)"
    )


def criterion_11_local_cohomology_baseline(seed: int = 0):
    """For the maximal monomial ideal in n = 2, 3 variables: H^i = 0 for
    i < n, and the top piece is 1 exactly on all-negative degrees."""
    for n in (2, 3):
        gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        cech = CechComplex(n, gens)
        for d in product(range(-6, 7), repeat=n):
            for i in range(n):
                if cech.cohomology_dim(i, d) != 0:
                    return False, f"H^{i} != 0 at {d} (n={n})"
            expected = 1 if all(c <= -1 for c in d) else 0
            if cech.cohomology_dim(n, d) != expected:
                return False, f"H^{n} wrong at {d} (n={n})"
    return True, "profiles exact over [-6,6]^n for n = 2, 3"


def criterion_12_mayer_vietoris(seed: int = 0):
    """Alternating sums vanish for 10 monomial pairs.  For 3 principal
    pairs the Mayer-Vietoris sequence on faces is exact by ranks, its
    I + J column matches the two-generator Cech complex, and its
    connecting map commutes with x_j from each pattern N to N - {j}.  The
    torsion functor is derivative-stable."""
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
        if not report["all_alternating_sums_zero"]:
            return False, f"alternating sum nonzero for {i_gens} vs {j_gens}"
    for f, g in (((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (1, 1))):
        report = mv_connecting_biprincipal(f, g, window)
        if not report["h_oracle_matches"]:
            return False, f"sum/Cech oracle mismatch for {f}, {g}"
        if not report["long_sequence_exact"]:
            return False, f"long sequence not exact for {f}, {g}"
        if not report["delta_d_linear"]:
            return False, f"delta fails derivative commutation for {f}, {g}"
    gamma_cases = [
        ((1, 0), [(0, 1)], False),  # R_x, I = (y): no torsion
        ((1, 0), [(1, 0)], False),  # R_x, I = (x): no torsion (domain)
        ((1, 0), [(1, 0)], True),   # R_x/R is entirely (x)-torsion
        ((1, 1), [(1, 1)], True),
    ]
    for f, i_gens, mod_r in gamma_cases:
        report = gamma_dstable_check(f, i_gens, [(-4, 4), (-4, 4)], mod_r=mod_r)
        if not report["stable"]:
            return False, f"Gamma not derivative-stable for f={f}, I={i_gens}"
    return True, "10 pairs, 3 connecting maps, and torsion stability all exact"


ALL_CRITERIA = [
    ("normal-form round trip", criterion_1_normal_form_round_trip),
    ("derivation power identity", criterion_2_commutation_closed_form),
    ("skew power identity", criterion_3_ore_power_formula),
    ("left-ideal power bound", criterion_4_star_bound),
    ("Koszul matrix identities", criterion_5_koszul_identities),
    ("regularity cross-validation", criterion_6_regularity_cross_validation),
    ("injectivity profile via Ext^1", criterion_7_injectivity_profile),
    ("hull multiplicity vs socle growth", criterion_8_hull_multiplicity),
    ("Artinian decomposition soundness", criterion_9_decomposition_soundness),
    ("associated primes and essentiality", criterion_10_ass_and_essentiality),
    ("local cohomology baseline", criterion_11_local_cohomology_baseline),
    ("Mayer-Vietoris battery", criterion_12_mayer_vietoris),
]


def run_all(seed: int = 0):
    """Run every criterion; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in ALL_CRITERIA:
        passed, detail = fn(seed)
        results.append((name, passed, detail))
    return results

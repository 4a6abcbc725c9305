"""Workload `artinian`: local decompositions, essential hulls, hull multiplicities.

A round holds:
- decompositions of zero-dimensional ideals of Q[x, y] supported at
  random rational points with fixed multiplicities (dimension 4..9), whose
  factor dimensions are known before the run;
- a known-answer family Q[x]/(prod q_i^m_i) built from irreducible q_i of
  known degree (Eisenstein polynomials of degree 2..6 and rational linear
  factors), whose factor dimensions must be deg(q_i) * m_i.  It holds
  quadratics with constant terms near 10^6, 10^9 and 10^12, which make
  the trial-division rational-root search slow, and the two inputs on
  which the program is known to answer wrongly (listed in KNOWN_DEFECTS);
- essential hulls of modules over algebras of dimension at most 6;
- hull multiplicities and socle growth for extensions x -> f(y) whose
  answer is fixed by construction.
Dense Fraction linear algebra and the rational-root search do most of the
work.  The five jobs with a constant near 10^12 are the slowest class and
hold p90; every other job stays well below them, so p90 does not hop
between classes from run to run.  Larger algebras are left out (a
decomposition of dimension 12-25 takes 0.1-2.5 s, a hull of dimension 9-12
0.3-1.4 s, and both vary widely with the seed): they would overlap that
class, cut a run below 100 jobs and make its figures depend on the seed.
"""

from __future__ import annotations

from fractions import Fraction

from weylcas import (
    ArtinAlgebra,
    ArtinModule,
    CurveExtension,
    Ideal,
    SparsePoly,
    decompose_local,
    essential_hull,
    hull_multiplicity,
    socle_growth_oracle,
)
from weylcas.hulls import socle_multiplicities

import qpoly as Q

XY = ("x", "y")

# Inputs the program answers wrongly: the squarefree part has no rational
# root, degree >= 5 and several irreducible factors, and it is kept whole.
# They stay in every round so the failure shows until it is fixed.
KNOWN_DEFECTS = {
    "(x^2+1)(x^3-2)": [([1, 0, 1], 1), ([-2, 0, 0, 1], 1)],
    "(x^3-2)(x^3-3)": [([-2, 0, 0, 1], 1), ([-3, 0, 0, 1], 1)],
}

# Degree patterns of the known-answer family that the program splits
# correctly: after the rational roots are removed at most one irreducible,
# or two quadratics, remain.
PATTERNS = [
    [(1, 2), (1, 1), (2, 1)],
    [(3, 2), (1, 1)],
    [(2, 1), (2, 1)],
    [(4, 1), (1, 3)],
    [(5, 1), (1, 2)],
    [(6, 1), (1, 1)],
    [(2, 2), (1, 1), (1, 1)],
]

BIG_CONSTANTS = (10 ** 6, 10 ** 9) + (10 ** 12,) * 5


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eisenstein(rng, degree):
    """Monic x^d + p*(...) with p not dividing the constant/p: irreducible."""
    p = rng.choice((2, 3, 5, 7))
    coeffs = [p * rng.randint(-2, 2) for _ in range(degree)]
    c0 = 0
    while c0 % p == 0:
        c0 = rng.randint(-4, 4)
    coeffs[0] = p * c0
    return coeffs + [1]


def _product(factors):
    poly = [1]
    for q, m in factors:
        for _ in range(m):
            poly = _dense_mul(poly, q)
    return poly


def _dense_to_terms(coeffs):
    return {(k,): Fraction(c) for k, c in enumerate(coeffs) if c}


def _known_job(label, factors, defect=False):
    return {"kind": "known", "label": label, "terms": _dense_to_terms(_product(factors)),
            "expect": sorted((len(q) - 1) * m for q, m in factors), "defect": defect}


def _random_pattern(rng, pattern):
    factors, used = [], set()
    for degree, m in pattern:
        while True:
            q = [-rng.randint(-9, 9), 1] if degree == 1 else eisenstein(rng, degree)
            if tuple(q) not in used:
                break
        used.add(tuple(q))
        factors.append((q, m))
    return factors


def point_ideal(rng, mx, my):
    """(prod (x - r_i)^mx_i, prod (y - s_j - c x)^my_j) with distinct r_i and
    s_j: local factors sit at the points (r_i, s_j + c r_i) and have
    dimensions mx_i * my_j.  Only the values are random, not the shape."""
    rs = rng.sample(range(-4, 5), len(mx))
    ss = rng.sample(range(-4, 5), len(my))
    c = rng.choice((-2, -1, 1, 2))
    f = {(0, 0): Fraction(1)}
    for r, m in zip(rs, mx):
        for _ in range(m):
            f = Q.mul(f, {(1, 0): 1, (0, 0): -r})
    g = {(0, 0): Fraction(1)}
    for s, m in zip(ss, my):
        for _ in range(m):
            g = Q.mul(g, {(0, 1): 1, (1, 0): -c, (0, 0): -s})
    return [f, g], sorted(a * b for a in mx for b in my)


# multiplicities of the x- and y-points
DECOMP_SHAPES = [([2], [1, 1]), ([2, 1], [2]), ([1, 1], [2, 1]),
                 ([1, 1, 1, 1], [2]), ([2], [1, 1, 1, 1]), ([3], [1, 2])]
HULL_SHAPES = [([1, 1], [2]), ([3], [1, 1]), ([2], [1, 2])] * 2


def make_round(rng):
    jobs = []
    for mx, my in DECOMP_SHAPES:
        gens, dims = point_ideal(rng, mx, my)
        jobs.append({"kind": "decomp", "gens": gens, "expect": dims})
    for pattern in PATTERNS:
        jobs.append(_known_job(repr(pattern), _random_pattern(rng, pattern)))
    for base in BIG_CONSTANTS:
        c = base + rng.randint(1, 1000)
        jobs.append(_known_job(f"x^2+{c}", [([c, 0, 1], 1), ([-1, 1], 2), ([1, 1], 1)]))
    for label, factors in KNOWN_DEFECTS.items():
        jobs.append(_known_job(label, factors, defect=True))
    for i, (mx, my) in enumerate(HULL_SHAPES):
        gens, dims = point_ideal(rng, mx, my)
        jobs.append({"kind": "hull", "gens": gens, "module": (i + i // 3) % 3,
                     "vector": [rng.randint(-2, 2) for _ in range(sum(dims))]})
    for k in (1, 2, 3, 2):
        r, t = rng.randint(-3, 3), rng.randint(-3, 3)
        # f(y) = t + (y - r)^k * u(y) with u(r) != 0, so nu = x - t and c = k
        u = [rng.randint(1, 3), rng.randint(-1, 1)]
        if u[0] + u[1] * r == 0:
            u[0] += 1
        f = _dense_mul(_product([([-r, 1], k)]), u)
        f[0] += t
        jobs.append({"kind": "hullmult", "f": _dense_to_terms(f), "r": r, "t": t, "expect": k})
        jobs.append({"kind": "socle", "f": _dense_to_terms(f), "r": r, "kmax": 3,
                     "expect": [k * j for j in (1, 2, 3)]})
    rng.shuffle(jobs)
    return jobs


# ---------- running and checking ----------

def _extension(job):
    y = ("y",)
    return CurveExtension(structural_map=SparsePoly(y, job["f"]),
                          maximal_ideal=[SparsePoly(y, {(1,): 1, (0,): -job["r"]})])


def run_decomp(job):
    algebra = ArtinAlgebra(Ideal(XY, [SparsePoly(XY, g) for g in job["gens"]]))
    return algebra, decompose_local(algebra)


def run_known(job):
    algebra = ArtinAlgebra(Ideal(("x",), [SparsePoly(("x",), job["terms"])]))
    return algebra, decompose_local(algebra)


def run_hull(job):
    algebra = ArtinAlgebra(Ideal(XY, [SparsePoly(XY, g) for g in job["gens"]]))
    module = ArtinModule.regular(algebra)
    if job["module"] == 1:
        module = module.dual()
    elif job["module"] == 2:
        vec = [Fraction(c) for c in job["vector"][: algebra.dim]]
        if not any(vec):
            vec[0] = Fraction(1)
        sub = module.submodule_closure([vec])
        if len(sub) < module.dim:
            module = module.quotient_by(sub)
    factors = decompose_local(algebra)
    hull = essential_hull(algebra, module, factors)
    return module, factors, hull, socle_multiplicities(algebra, module, factors)


def algebra_mult(table, u, v):
    out = [Fraction(0)] * len(u)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    for k, t in enumerate(table[i][j]):
                        if t:
                            out[k] += a * b * t
    return out


def check_decomposition(algebra, factors, dim):
    """Dimensions add up, and the idempotents are orthogonal and sum to 1,
    multiplied out with the algebra's structure constants."""
    if algebra.dim != dim or sum(f.dim for f in factors) != dim:
        return False
    table = algebra.table
    one = [Fraction(int(e == (0,) * len(e))) for e in algebra.basis]
    total = [Fraction(0)] * dim
    for i, f in enumerate(factors):
        e = f.idempotent
        if algebra_mult(table, e, e) != e:
            return False
        for g in factors[i + 1:]:
            if any(algebra_mult(table, e, g.idempotent)):
                return False
        total = [a + b for a, b in zip(total, e)]
    return total == one


def check_dims(job, result):
    algebra, factors = result
    return (check_decomposition(algebra, factors, sum(job["expect"]))
            and sorted(f.dim for f in factors) == job["expect"])


def check_hull(job, result):
    module, factors, hull, socle = result
    if not all(hull.certificates.values()) or hull.multiplicities != socle:
        return False
    if hull.module.dim != sum(m * f.dim for m, f in zip(hull.multiplicities, factors)):
        return False
    # the dual of the regular module is injective: it is its own hull
    return job["module"] != 1 or hull.module.dim == module.dim


def check_hullmult(job, report):
    return report.multiplicity == job["expect"] and dict(report.nu.terms) == Q.clean(
        {(1,): 1, (0,): -job["t"]})


RUN = {
    "decomp": run_decomp,
    "known": run_known,
    "hull": run_hull,
    "hullmult": lambda job: hull_multiplicity(_extension(job)),
    "socle": lambda job: socle_growth_oracle(_extension(job), job["kmax"]),
}

CHECK = {
    "decomp": check_dims,
    "known": check_dims,
    "hull": check_hull,
    "hullmult": check_hullmult,
    "socle": lambda job, r: r == job["expect"],
}

"""Workload `cohomology`: Cech and Koszul cohomology by rank arithmetic.

Every job reduces to thousands of tiny `rref`/`rank` calls on 0/+-1
matrices, the other way `linalg` is used besides the few large products
of the `artinian` workload.  A round holds Cech cohomology over degree
windows (maximal and random monomial ideals in 2-4 variables),
Mayer-Vietoris dimension checks and connecting maps, and Koszul H_1 / Ext^1
against the hull model with d o d = 0.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

from weylcas import (
    CechComplex,
    GradedModuleModel,
    KoszulComplex,
    SparsePoly,
    ext1_koszul,
    mv_dimension_check,
)
from weylcas.koszul import koszul_h1_window
from weylcas.localcoh import mv_connecting_biprincipal

import qpoly as Q

MAX_WINDOWS = {2: (-4, 3), 3: (-3, 2), 4: (-2, 1)}


def _random_monomials(rng, n, count, max_deg):
    out = []
    while len(out) < count:
        e = tuple(rng.randint(0, max_deg) for _ in range(n))
        if any(e):
            out.append(e)
    return out


def _degrees(n, lo, hi):
    return list(product(range(lo, hi + 1), repeat=n))


def _permute(rng, exps):
    perm = list(range(len(exps[0])))
    rng.shuffle(perm)
    return [tuple(e[p] for p in perm) for e in exps]


def make_round(rng):
    # `shape` fixes the monomials, identically in every round; the seed
    # permutes the variables.  Windows are cubes, so a job slot costs the
    # same for every seed.
    shape = random.Random("cohomology shapes")
    jobs = []
    for n, (lo, hi) in MAX_WINDOWS.items():
        gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        jobs.append({"kind": "cech", "n": n, "gens": gens, "window": (lo, hi), "maximal": True})
    for n, count in ((2, 3), (2, 4), (2, 4), (3, 2), (3, 3)):
        jobs.append({"kind": "cech", "n": n,
                     "gens": _permute(rng, _random_monomials(shape, n, count, 2)),
                     "window": (-2, 2) if n == 3 else (-3, 3), "maximal": False})
    for _ in range(6):
        i_count, j_count = shape.randint(1, 2), shape.randint(1, 2)
        both = _permute(rng, _random_monomials(shape, 2, i_count + j_count, 2))
        jobs.append({"kind": "mv", "i": both[:i_count], "j": both[i_count:]})
    for _ in range(4):
        f, g = _permute(rng, _random_monomials(shape, 2, 2, 2))
        jobs.append({"kind": "mvconn", "f": f, "g": g})
    for i in range(8):
        n = 3 if i % 4 == 2 else 2
        if i % 4 == 0:
            seq = [tuple(shape.randint(1, 2) if j == k else 0 for j in range(n)) for k in range(2)]
        else:
            seq = _random_monomials(shape, n, 2 + (i % 4 == 3), 2)
        jobs.append({"kind": "koszul", "n": n, "seq": _permute(rng, seq), "regular": i % 4 == 0,
                     "top": sum(map(sum, seq)) + 1})
    rng.shuffle(jobs)
    return jobs


# ---------- running ----------

def run_cech(job):
    cech = CechComplex(job["n"], job["gens"])
    return {(i, d): cech.cohomology_dim(i, d)
            for d in _degrees(job["n"], *job["window"]) for i in range(cech.r + 1)}


def run_mv(job):
    return mv_dimension_check(job["i"], job["j"], [(-3, 3), (-3, 3)])


def run_mvconn(job):
    return mv_connecting_biprincipal(job["f"], job["g"], [(-2, 2), (-2, 2)])


def run_koszul(job):
    n = job["n"]
    names = tuple(f"x{i + 1}" for i in range(n))
    seq = [SparsePoly.monomial(names, e) for e in job["seq"]]
    top = job["top"]
    model = GradedModuleModel.top_local_cohomology(names)
    return (koszul_h1_window(seq, (0, top)),
            ext1_koszul(seq, model, (-top - n, -n)),
            KoszulComplex(seq).composes_to_zero())


# ---------- checking ----------

def cech_euler(n, gens, d):
    """sum_t (-1)^t #{|T| = t : the localization at prod_T has a degree-d piece}."""
    total = 0
    for t in range(len(gens) + 1):
        for subset in combinations(gens, t):
            support = {j for e in subset for j, x in enumerate(e) if x}
            if all(d[j] >= 0 for j in range(n) if j not in support):
                total += (-1) ** t
    return total


def check_cech(job, dims):
    n, gens = job["n"], job["gens"]
    for d in _degrees(n, *job["window"]):
        h = [dims[(i, d)] for i in range(len(gens) + 1)]
        if job["maximal"]:
            # H^i_m(R) = 0 for i < n; H^n is 1 exactly at all-negative degrees
            if any(h[:n]) or h[n] != int(all(x < 0 for x in d)):
                return False
        elif h[0] != 0 or sum((-1) ** i * x for i, x in enumerate(h)) != cech_euler(n, gens, d):
            return False
    return True


def check_mv(job, report):
    if not report["all_alternating_sums_zero"]:
        return False
    for entry in report["degrees"].values():
        cols = [entry[k] for k in ("sum", "I", "J", "cap")]
        alt = sum((-1) ** i * (s - a - b + c) for i, (s, a, b, c) in enumerate(zip(*cols)))
        if alt != 0:
            return False
    return True


def check_mvconn(job, report):
    return report["h_oracle_matches"] and report["long_sequence_exact"] and report["delta_d_linear"]


def _dim_r(n, t):
    return comb(t + n - 1, n - 1) if t >= 0 else 0


def koszul_h1_pair(n, a, b, d):
    """dim H_1 in degree d for two monomials: H_2 = 0 in a domain, so
    H_1 = H_0 - (Euler characteristic of the Koszul complex)."""
    h0 = sum(1 for e in Q.monomials_of_degree(d, n)
             if not Q.divides(a, e) and not Q.divides(b, e))
    da, db = sum(a), sum(b)
    chi = _dim_r(n, d) - _dim_r(n, d - da) - _dim_r(n, d - db) + _dim_r(n, d - da - db)
    return h0 - chi


def check_koszul(job, result):
    h1, ext1, composes = result
    n = job["n"]
    if not composes:
        return False
    # E is injective, so Ext^1(R/(a), E)_d is dual to H_1 in degree -d - n
    if any(ext1[d] != h1[-d - n] for d in ext1):
        return False
    if job["regular"]:
        return not any(h1.values())
    if len(job["seq"]) == 2:
        a, b = job["seq"]
        return all(h1[d] == koszul_h1_pair(n, a, b, d) for d in h1)
    return True


RUN = {"cech": run_cech, "mv": run_mv, "mvconn": run_mvconn, "koszul": run_koszul}
CHECK = {"cech": check_cech, "mv": check_mv, "mvconn": check_mvconn, "koszul": check_koszul}

"""Workload `groebner`: reduced bases and the ideal operations built on them.

A round has a fixed mix.  The large bases (cyclic-4/5 and katsura-4/5
under grevlex) are the same every round; seven katsura-4 jobs per round
put p90 inside one class of job.  Everything else is drawn from the
round's random generator: lex bases of 3-variable systems, random 3-4
variable systems, and many small jobs (membership, colon, intersection,
saturation, standard monomials, regular sequences), which set p50.
"""

from __future__ import annotations

import random

from weylcas import GREVLEX, LEX, Ideal, SparsePoly, is_regular_sequence, saturation
from weylcas import standard_monomials
from weylcas.groebner import intersect, quotient_by_ideal

import qpoly as Q

ORDERS = {"grevlex": GREVLEX, "lex": LEX}

# Reduced bases are unique, so a fingerprint taken once stands for all runs.
REFERENCE_DIGESTS = {
    ("cyclic", 4, "grevlex"): "03763dbacbd7a574",
    ("cyclic", 5, "grevlex"): "c27c404cd0d611d3",
    ("katsura", 4, "grevlex"): "3b01a8390e15ed60",
    ("katsura", 5, "grevlex"): "4f366f124a9d9990",
    ("cyclic", 3, "lex"): "c90cd05035d7686a",
    ("katsura", 2, "lex"): "b01a874fa03c2378",
}


def names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def cyclic(n):
    gens = []
    for k in range(1, n):
        s = {}
        for i in range(n):
            e = [0] * n
            for j in range(k):
                e[(i + j) % n] += 1
            s = Q.add(s, Q.monomial(e))
        gens.append(s)
    gens.append(Q.add(Q.monomial([1] * n), Q.constant(n, -1)))
    return gens


def katsura(n):
    """Katsura-n: n + 1 unknowns u_0..u_n with u_{-l} = u_l."""
    m = n + 1

    def u(i):
        i = abs(i)
        return Q.variable(m, i) if i <= n else {}

    gens = []
    for k in range(n):
        s = {}
        for l in range(-n, n + 1):
            s = Q.add(s, Q.mul(u(l), u(k - l)))
        gens.append(Q.add(s, u(k), -1))
    s = {}
    for l in range(-n, n + 1):
        s = Q.add(s, u(l))
    gens.append(Q.add(s, Q.constant(m, -1)))
    return gens


def _nonzero(rng, lo=-5, hi=5):
    c = 0
    while c == 0:
        c = rng.randint(lo, hi)
    return c


def _support(shape, n, degree, terms):
    """Exponents of a random support of total degree at most `degree`."""
    out = set()
    while len(out) < terms:
        e = [0] * n
        for _ in range(shape.randint(0, degree)):
            e[shape.randrange(n)] += 1
        out.add(tuple(e))
    return sorted(out)


def _poly_on(support, rng, lo=-5, hi=5):
    return {e: _nonzero(rng, lo, hi) for e in support}


def _unitriangular_images(rng, n):
    """Images of x_i -> x_i + sum_{j>i} c_ij x_j: an automorphism of Q[x]."""
    images = []
    for i in range(n):
        img = Q.variable(n, i)
        for j in range(i + 1, n):
            img = Q.add(img, Q.variable(n, j, _nonzero(rng, -2, 2)))
        images.append(img)
    return images


def _random_monomials(shape, n, count, max_deg):
    out = []
    while len(out) < count:
        e = tuple(shape.randint(0, max_deg) for _ in range(n))
        if any(e):
            out.append(e)
    return out


def _permuted(rng, exps):
    perm = list(range(len(exps[0])))
    rng.shuffle(perm)
    return [tuple(e[p] for p in perm) for e in exps]


# ---------- closed forms for monomial ideals ----------

def mono_intersect(a, b):
    return Q.minimalize([tuple(max(x, y) for x, y in zip(p, q)) for p in a for q in b])


def mono_colon(a, b):
    """(A : B) as the intersection of (A : m) over the generators m of B."""
    result = None
    for m in b:
        part = Q.minimalize([tuple(max(x - y, 0) for x, y in zip(p, m)) for p in a])
        result = part if result is None else mono_intersect(result, part)
    return result


def mono_saturation(a, b):
    current = Q.minimalize(a)
    while True:
        step = mono_colon(current, b)
        if step == current:
            return current
        current = step


# ---------- one round ----------

def _basis_job(gens, n, order, ref=None):
    return {"kind": "basis", "n": n, "gens": gens, "order": order, "ref": ref}


def make_round(rng):
    # `shape` fixes supports, degrees and exponents, identically in every
    # round; `rng` draws the coefficients, points and variable permutations.
    # So a job slot costs about the same for every seed.
    shape = random.Random("groebner shapes")
    jobs = []
    for family, size, order in REFERENCE_DIGESTS:
        gens = cyclic(size) if family == "cyclic" else katsura(size)
        n = size if family == "cyclic" else size + 1
        jobs.append(_basis_job(gens, n, order, REFERENCE_DIGESTS[(family, size, order)]))
    k4 = REFERENCE_DIGESTS[("katsura", 4, "grevlex")]
    for _ in range(6):  # katsura-4 seven times in all: p90 falls inside this class
        jobs.append(_basis_job(katsura(4), 5, "grevlex", k4))
    for n, order in [(3, "lex")] * 2 + [(3, "grevlex")] * 2 + [(4, "grevlex")] * 2:
        gens = [_poly_on(_support(shape, n, 2, 3 if order == "lex" else 4), rng) for _ in range(n)]
        jobs.append(_basis_job(gens, n, order))
    for i in range(12):
        point = [rng.randint(-3, 3) for _ in range(3)]
        gens = []
        for _ in range(3):
            h = _poly_on(_support(shape, 3, 2, 3), rng)
            gens.append(Q.add(h, Q.constant(3, -Q.evaluate(h, point))))
        f = {}
        for g in gens:
            f = Q.add(f, Q.mul(g, _poly_on(_support(shape, 3, 1, 2), rng, -3, 3)))
        member = i % 2 == 0 or not f
        if not member:
            f = Q.add(f, Q.constant(3, 1))
        jobs.append({"kind": "member", "gens": gens, "f": f, "expect": member})
    for kind, count in (("quotient", 8), ("intersect", 8), ("saturation", 6)):
        closed = {"quotient": mono_colon, "intersect": mono_intersect,
                  "saturation": mono_saturation}[kind]
        for _ in range(count):
            both = _permuted(rng, _random_monomials(shape, 3, 3, 3)
                             + _random_monomials(shape, 3, 2, 2))
            a, b = both[:3], both[3:]
            jobs.append({"kind": kind, "a": a, "b": b, "expect": closed(a, b)})
    for _ in range(8):
        degs = [shape.randint(1, 3) for _ in range(3)]
        gens = []
        for k, d in enumerate(degs):
            g = Q.monomial([d if i == k else 0 for i in range(3)])
            for _ in range(2):
                e = [0] * 3
                for _ in range(shape.randint(0, d - 1)):
                    e[shape.randrange(k, 3)] += 1
                g = Q.add(g, Q.monomial(e, _nonzero(rng, -3, 3)))
            gens.append(g)
        images = _unitriangular_images(rng, 3)
        gens = [Q.substitute(g, images, 3) for g in gens]
        jobs.append({"kind": "stdmon", "gens": gens, "expect": degs[0] * degs[1] * degs[2]})
    for i in range(8):
        images = _unitriangular_images(rng, 3)
        if i % 2 == 0:
            seq = [Q.monomial([shape.randint(1, 2) if j == k else 0 for j in range(3)])
                   for k in range(3)]
        else:
            f = Q.add(Q.variable(3, 0), Q.variable(3, 1, _nonzero(rng, -2, 2)))
            seq = [Q.mul(f, Q.add(Q.variable(3, k), Q.constant(3, rng.randint(1, 3))))
                   for k in (1, 2)]
        seq = [Q.substitute(g, images, 3) for g in seq]
        jobs.append({"kind": "regseq", "seq": seq, "expect": i % 2 == 0})
    rng.shuffle(jobs)
    return jobs


# ---------- running and checking ----------

def _poly(n, p):
    return SparsePoly(names(n), p)


def _mono_ideal(exps):
    return Ideal(names(3), [SparsePoly.monomial(names(3), e) for e in exps])


def run_basis(job):
    n = job["n"]
    return Ideal(names(n), [_poly(n, g) for g in job["gens"]]).groebner_basis(ORDERS[job["order"]])


def check_basis(job, basis):
    key = Q.ORDER_KEYS[job["order"]]
    plain = [dict(g.terms) for g in basis]
    if not plain or not Q.is_reduced_basis(plain, key):
        return False
    if any(Q.reduce(g, plain, key) for g in job["gens"]):
        return False
    if job["ref"] is not None:
        return Q.digest(plain) == job["ref"]
    return Q.is_groebner(plain, key)


def run_member(job):
    return Ideal(names(3), [_poly(3, g) for g in job["gens"]]).contains(_poly(3, job["f"]))


def run_monomial_op(job):
    a, b = _mono_ideal(job["a"]), _mono_ideal(job["b"])
    op = {"quotient": quotient_by_ideal, "intersect": intersect, "saturation": saturation}
    return op[job["kind"]](a, b).groebner_basis()


def check_monomial_op(job, basis):
    plain = [dict(g.terms) for g in basis]
    if any(len(p) != 1 or next(iter(p.values())) != 1 for p in plain):
        return False
    return sorted(next(iter(p)) for p in plain) == job["expect"]


def run_stdmon(job):
    return standard_monomials(Ideal(names(3), [_poly(3, g) for g in job["gens"]]))


def run_regseq(job):
    return is_regular_sequence([_poly(3, g) for g in job["seq"]])[0]


RUN = {
    "basis": run_basis,
    "member": run_member,
    "quotient": run_monomial_op,
    "intersect": run_monomial_op,
    "saturation": run_monomial_op,
    "stdmon": run_stdmon,
    "regseq": run_regseq,
}

CHECK = {
    "basis": check_basis,
    "member": lambda job, r: r is job["expect"],
    "quotient": check_monomial_op,
    "intersect": check_monomial_op,
    "saturation": check_monomial_op,
    "stdmon": lambda job, r: len(r) == job["expect"],
    "regseq": lambda job, r: r is job["expect"],
}

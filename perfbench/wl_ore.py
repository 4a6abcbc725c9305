"""Workload `ore`: Weyl-algebra normal forms, products and actions.

Operators live in 1-3 variables and every operator order 1..12 appears
equally often: a round holds one job of each kind per order.  Inputs go in
as text through `parse_operator` and results come back through
`diffop_to_str`, as in the command-line front end.  Nearly all the work is
in `ore`, `poly` and `parser` (`verify_star` makes a few small `groebner`
membership tests), and the rewrite worklist's cost grows about fourfold
every two orders, so the top orders set p90.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from weylcas import Ideal, LocalizedFraction, OreRing, SparsePoly, verify_star
from weylcas.parser import diffop_to_str, parse_operator

import qpoly as Q

ORDERS = range(1, 13)


def names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def _factor(name, e):
    return name if e == 1 else f"{name}^{e}"


def term_text(c, xs, ds):
    """c * x^xs * d^ds as text, in left normal form."""
    parts = [_factor(f"x{j + 1}", e) for j, e in enumerate(xs) if e]
    parts += [_factor(f"d{j + 1}", e) for j, e in enumerate(ds) if e]
    if abs(c) != 1 or not parts:
        parts.insert(0, str(abs(c)))
    return ("-" if c < 0 else "") + "*".join(parts)


def sum_text(terms):
    out = term_text(*terms[0])
    for c, xs, ds in terms[1:]:
        t = term_text(c, xs, ds)
        out += f" - {t[1:]}" if c < 0 else f" + {t}"
    return out


def _nonzero(rng, lo=-5, hi=5):
    c = 0
    while c == 0:
        c = rng.randint(lo, hi)
    return c


def random_terms(rng, n, i, order, x_degree):
    """Three terms in variable i of shapes x^xd d^order, x^(xd/2) d^(order/2)
    and 1, with random coefficients: the shape, and so the cost, is fixed."""
    def mono(e):
        return [e if t == i else 0 for t in range(n)]

    return [(_nonzero(rng), mono(x_degree), mono(order)),
            (_nonzero(rng), mono(x_degree // 2), mono(order // 2)),
            (_nonzero(rng), mono(0), mono(0))]


def closed_form(n, i, k):
    """d_i^k x_i^k = sum_j C(k,j)^2 j! x_i^(k-j) d_i^(k-j), as plain data."""
    out = {}
    for j in range(k + 1):
        e = tuple(k - j if t == i else 0 for t in range(n))
        out[e] = {e: Fraction(comb(k, j) ** 2 * factorial(j))}
    return out


def make_round(rng):
    jobs = []
    for k in ORDERS:
        # the ring size of each slot is fixed, so a job's cost depends on
        # the seed only through its coefficients and spare terms
        n = 1 + k % 3
        i = rng.randrange(n)
        jobs.append({"kind": "closed", "n": n, "text": f"d{i + 1}^{k}*x{i + 1}^{k}",
                     "expect": closed_form(n, i, k)})
        i = rng.randrange(n)
        a_order = (k + 1) // 2
        jobs.append({"kind": "product", "n": n,
                     "a": sum_text(random_terms(rng, n, i, a_order, 2)),
                     "b": sum_text(random_terms(rng, n, i, k - a_order, k)),
                     "p": {tuple(k + 2 - j if t == i else j for t in range(n)): _nonzero(rng)
                           for j in range(3)}})
        i = rng.randrange(n)
        xs = [k if t == i else 0 for t in range(n)]
        text = sum_text([(_nonzero(rng), xs, xs)] + random_terms(rng, n, i, k, 2))
        jobs.append({"kind": "roundtrip", "n": n, "text": text})
        i = rng.randrange(n)
        c, shift, m = _nonzero(rng), rng.randint(1, 5), rng.randint(1, 3)
        jobs.append({"kind": "fraction", "n": n, "i": i, "text": f"{c}*d{i + 1}^{k}",
                     "shift": shift, "m": m,
                     "expect": c * (-1) ** k * factorial(m + k - 1) // factorial(m - 1)})
        i = rng.randrange(n)
        jobs.append({"kind": "star", "n": n, "i": i, "text": f"d{i + 1}^{k}", "expect": k + 1})
    rng.shuffle(jobs)
    return jobs


# ---------- running and checking ----------

def _plain(op):
    return {alpha: dict(c.terms) for alpha, c in op.terms.items()}


def run_closed(job):
    op = parse_operator(job["text"], OreRing.weyl(names(job["n"])))
    return op, diffop_to_str(op)


def run_product(job):
    ring = OreRing.weyl(names(job["n"]))
    a, b = parse_operator(job["a"], ring), parse_operator(job["b"], ring)
    ab = a * b
    p = SparsePoly(ring.vars, job["p"])
    return diffop_to_str(ab), ab.apply(p), a.apply(b.apply(p))


def run_roundtrip(job):
    op = parse_operator(job["text"], OreRing.weyl(names(job["n"])))
    right = op.to_right()
    return op, right.to_left(), diffop_to_str(right)


def run_fraction(job):
    ring = OreRing.weyl(names(job["n"]))
    base = SparsePoly(ring.vars, Q.add(Q.variable(job["n"], job["i"]),
                                       Q.constant(job["n"], job["shift"])))
    f = LocalizedFraction(SparsePoly.one(ring.vars), base, job["m"])
    return parse_operator(job["text"], ring).apply(f)


def run_star(job):
    ring = OreRing.weyl(names(job["n"]))
    ideal = Ideal(ring.vars, [SparsePoly.variable(ring.vars, job["i"])])
    return verify_star(ideal, parse_operator(job["text"], ring), job["expect"])


def check_fraction(job, frac):
    """num / base^power == expect / (x_i + shift)^(m + k), cross-multiplied."""
    n = job["n"]
    k = int(job["text"].rsplit("^", 1)[1])
    lin = Q.add(Q.variable(n, job["i"]), Q.constant(n, job["shift"]))
    lhs = Q.mul(dict(frac.num.terms), Q.power(lin, job["m"] + k, n))
    rhs = Q.mul(Q.constant(n, job["expect"]), Q.power(dict(frac.base.terms), frac.power, n))
    return Q.clean(lhs) == Q.clean(rhs)


RUN = {
    "closed": run_closed,
    "product": run_product,
    "roundtrip": run_roundtrip,
    "fraction": run_fraction,
    "star": run_star,
}

CHECK = {
    "closed": lambda job, r: _plain(r[0]) == job["expect"] and bool(r[1]),
    "product": lambda job, r: bool(r[0]) and r[1].terms == r[2].terms,
    "roundtrip": lambda job, r: _plain(r[0]) == _plain(r[1]) and bool(r[2]),
    "fraction": check_fraction,
    "star": lambda job, r: r == job["expect"],
}

"""Polynomials over Q as plain dicts, written for the benchmark alone.

The benchmark builds its inputs and checks the library's answers with this
code, so no check trusts the code it checks.  A polynomial is a dict from
exponent tuples to nonzero Fractions (or ints); {} is zero.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def lex_key(e):
    return tuple(e)


ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}


def clean(p):
    return {e: Fraction(c) for e, c in p.items() if c != 0}


def add(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + scale * c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def power(p, k, n):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = mul(out, p)
    return out


def variable(n, i, c=1):
    e = [0] * n
    e[i] = 1
    return {tuple(e): c}


def monomial(e, c=1):
    return {tuple(e): c}


def constant(n, c):
    return {(0,) * n: c} if c else {}


def evaluate(p, point):
    total = Fraction(0)
    for e, c in p.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def substitute(p, images, n):
    """p(images[0], ..., images[n-1]) for polynomial images."""
    out = {}
    for e, c in p.items():
        term = constant(n, c)
        for img, k in zip(images, e):
            for _ in range(k):
                term = mul(term, img)
        out = add(out, term)
    return out


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def lead(p, key):
    e = max(p, key=key)
    return e, p[e]


def reduce(p, basis, key):
    """Full normal form of p modulo basis (any order of the basis)."""
    heads = [lead(g, key) for g in basis]
    work = dict(p)
    rem = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (he, hc) in zip(basis, heads):
            if divides(he, e):
                shift = tuple(a - b for a, b in zip(e, he))
                f = Fraction(c) / hc
                for ge, gc in g.items():
                    if ge == he:
                        continue
                    te = tuple(a + b for a, b in zip(ge, shift))
                    s = work.get(te, 0) - f * gc
                    if s == 0:
                        work.pop(te, None)
                    else:
                        work[te] = s
                break
        else:
            rem[e] = c
    return rem


def s_poly(f, g, key):
    ef, cf = lead(f, key)
    eg, cg = lead(g, key)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = monomial(tuple(a - b for a, b in zip(lcm, ef)), Fraction(1) / cf)
    mg = monomial(tuple(a - b for a, b in zip(lcm, eg)), Fraction(1) / cg)
    return add(mul(mf, f), mul(mg, g), -1)


def is_reduced_basis(basis, key):
    """Monic leads, and no term of any element divisible by another lead."""
    heads = [lead(g, key) for g in basis]
    if any(c != 1 for _, c in heads):
        return False
    for i, g in enumerate(basis):
        for j, (he, _) in enumerate(heads):
            if i != j and any(divides(he, e) for e in g):
                return False
    return True


def is_groebner(basis, key):
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reduce(s_poly(basis[i], basis[j], key), basis, key):
                return False
    return True


def digest(basis):
    """Order-independent fingerprint of a set of polynomials."""
    canon = sorted(
        repr(sorted((e, str(Fraction(c))) for e, c in g.items())) for g in basis
    )
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]


def minimalize(exps):
    """Minimal generators of the monomial ideal spanned by exps."""
    uniq = sorted(set(map(tuple, exps)), key=lambda e: (sum(e), e))
    out = []
    for e in uniq:
        if not any(divides(m, e) for m in out):
            out.append(e)
    return sorted(out)


def monomials_of_degree(total, n):
    """All exponent tuples of length n summing to total."""
    if n == 1:
        return [(total,)] if total >= 0 else []
    return [(first,) + rest for first in range(total + 1)
            for rest in monomials_of_degree(total - first, n - 1)]

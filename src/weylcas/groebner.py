"""Buchberger's algorithm and the ideal operations built on it.

Membership, colon ideals, intersections, saturation, and standard
monomials of zero-dimensional ideals.  S-pairs wait in a heap keyed by the
order key of their lcm, computed once when the pair is made; each new basis
element goes through the Gebauer-Moeller update, which drops the pairs its
criteria make redundant.  Reductions keep their working terms in a heap
front, so every term's order key is computed once.  Reduced bases are
computed so that a given ideal and order determine the basis uniquely.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from operator import add, le, sub

from .poly import GREVLEX, SparsePoly, TermOrder


class NotZeroDimensionalError(ValueError):
    """The ideal has no pure-power head term for some variable."""


class SaturationDivergedError(RuntimeError):
    """Saturation failed to stabilize within the iteration cap."""


def _divides(e1: tuple[int, ...], e2: tuple[int, ...]) -> bool:
    return all(map(le, e1, e2))


def _exp_sub(e1, e2):
    return tuple(map(sub, e1, e2))


def _exp_lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _coprime(e1, e2) -> bool:
    return not any(map(min, e1, e2))


def _front(terms, key):
    """The working terms of a reduction and their front: a heap of
    (negated order key, exponent), so the largest term pops first."""
    front = [(tuple([-k for k in key(e)]), e) for e in terms]
    heapify(front)
    return dict(terms), front


def _pop_head(work, front):
    """Remove and return the largest working term.  Heap entries whose term
    has cancelled are skipped."""
    while True:
        e = heappop(front)[1]
        c = work.pop(e, None)
        if c is not None:
            return e, c


def _subtract(work, front, key, fac, shift, tail):
    """work -= fac * x^shift * tail.  Every new term lies below the head just
    popped, so the front only moves down."""
    for ge, gc in tail:
        te = tuple(map(add, ge, shift))
        old = work.get(te)
        if old is None:
            work[te] = -fac * gc
            heappush(front, (tuple([-k for k in key(te)]), te))
        else:
            acc = old - fac * gc
            if acc:
                work[te] = acc
            else:
                del work[te]


def _head_and_tail(g: SparsePoly, order: TermOrder):
    he, hc = g.leading_term(order)
    return he, hc, [(ge, gc) for ge, gc in g.terms.items() if ge != he]


def reduce_poly(f: SparsePoly, basis: list[SparsePoly], order: TermOrder) -> SparsePoly:
    """Full normal form of f modulo basis: no remaining term is divisible
    by any basis head term.  Each term is divided by the first basis
    element whose head divides it."""
    if not basis:
        return f
    key = order.key
    divisors = [_head_and_tail(g, order) for g in basis]
    remainder: dict[tuple[int, ...], Fraction] = {}
    work, front = _front(f.terms, key)
    while work:
        e, c = _pop_head(work, front)
        for he, hc, tail in divisors:
            if _divides(he, e):
                _subtract(work, front, key, c / hc, _exp_sub(e, he), tail)
                break
        else:
            remainder[e] = c
    return SparsePoly(f.vars, remainder)


def s_polynomial(f: SparsePoly, g: SparsePoly, order: TermOrder) -> SparsePoly:
    ef, cf = f.leading_term(order)
    eg, cg = g.leading_term(order)
    l = _exp_lcm(ef, eg)
    mf = SparsePoly.monomial(f.vars, _exp_sub(l, ef), 1 / cf)
    mg = SparsePoly.monomial(f.vars, _exp_sub(l, eg), 1 / cg)
    return mf * f - mg * g


def buchberger(generators: list[SparsePoly], order: TermOrder) -> list[SparsePoly]:
    """Reduced Groebner basis of the ideal generated by `generators`."""
    basis = [g for g in generators if not g.is_zero()]
    # interreduce the input to cut pair churn; one element at a time so the
    # span is preserved at every step.  Afterwards no head divides another.
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            r = reduce_poly(basis[i], others, order)
            if r.terms != basis[i].terms:
                changed = True
                if r.is_zero():
                    basis.pop(i)
                else:
                    basis[i] = r
                break

    key = order.key
    heads: list[tuple[int, ...]] = []
    active: list[int] = []  # basis indices whose head no later head divides
    pairs: list = []  # heap of (key(lcm), i, j, lcm) with i < j

    def update(new: int):
        """Gebauer-Moeller: add the pairs of `new` that criteria M and F keep,
        drop old pairs by criterion B, retire elements `new` makes redundant."""
        h = heads[new]
        cands = [(_exp_lcm(heads[g], h), g) for g in active]
        kept = []
        for n, (l, g) in enumerate(cands):
            if _coprime(heads[g], h) or not (
                any(_divides(l2, l) for l2, _ in cands[n + 1:])
                or any(_divides(l2, l) for l2, _ in kept)
            ):
                kept.append((l, g))
        pairs[:] = [
            p for p in pairs
            if not _divides(h, p[3])
            or _exp_lcm(heads[p[1]], h) == p[3]
            or _exp_lcm(heads[p[2]], h) == p[3]
        ]
        pairs.extend((key(l), g, new, l) for l, g in kept if not _coprime(heads[g], h))
        heapify(pairs)
        active[:] = [g for g in active if not _divides(h, heads[g])]
        active.append(new)

    for i, g in enumerate(basis):
        heads.append(g.leading_term(order)[0])
        update(i)
    while pairs:
        _, i, j, _ = heappop(pairs)
        r = reduce_poly(
            s_polynomial(basis[i], basis[j], order), [basis[k] for k in active], order
        )
        if r.is_zero():
            continue
        basis.append(r)
        heads.append(r.leading_term(order)[0])
        update(len(basis) - 1)

    # the active elements form a minimal basis; tail-reduce and normalize
    keep = [basis[k] for k in active]
    reduced = []
    for i, g in enumerate(keep):
        r = reduce_poly(g, keep[:i] + keep[i + 1:], order)
        _, lc = r.leading_term(order)
        reduced.append(r * (1 / lc))
    reduced.sort(key=lambda g: key(g.leading_term(order)[0]))
    return reduced


class Ideal:
    """An ideal of Q[vars], carrying a cached reduced Groebner basis."""

    def __init__(self, variables, generators: list[SparsePoly]):
        self.vars = tuple(variables)
        gens = []
        for g in generators:
            if g.vars != self.vars:
                raise ValueError("generator over the wrong ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = gens
        self._gb_cache: dict[TermOrder, list[SparsePoly]] = {}

    def groebner_basis(self, order: TermOrder = GREVLEX) -> list[SparsePoly]:
        if order not in self._gb_cache:
            self._gb_cache[order] = buchberger(self.generators, order)
        return self._gb_cache[order]

    def contains(self, f: SparsePoly, order: TermOrder = GREVLEX) -> bool:
        if f.is_zero():
            return True
        return reduce_poly(f, self.groebner_basis(order), order).is_zero()

    def reduce(self, f: SparsePoly, order: TermOrder = GREVLEX) -> SparsePoly:
        return reduce_poly(f, self.groebner_basis(order), order)

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def contains_one(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def includes(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        return self.includes(other) and other.includes(self)

    def __repr__(self):
        return f"Ideal({', '.join(g.to_str() for g in self.generators) or '0'})"


class _BlockElimOrder(TermOrder):
    """Eliminate the first `n_front` variables: compare their total degree
    first (grevlex among them), then grevlex on the rest.  Internal helper
    for intersections; not part of the public order kinds."""

    def __init__(self, n_front: int):
        self.kind = "grevlex"
        self.priority = None
        self.n_front = n_front

    def key(self, exponents):
        front = exponents[: self.n_front]
        back = exponents[self.n_front:]
        return (
            (sum(front),) + tuple([-x for x in reversed(front)])
            + (sum(back),) + tuple([-x for x in reversed(back)])
        )

    def __eq__(self, other):
        return isinstance(other, _BlockElimOrder) and self.n_front == other.n_front

    def __hash__(self):
        return hash(("elim", self.n_front))

    def __repr__(self):
        return f"_BlockElimOrder({self.n_front})"


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J by the single-tag-variable elimination trick."""
    if I.vars != J.vars:
        raise ValueError("ideals over different rings")
    if I.is_zero() or J.is_zero():
        return Ideal(I.vars, [])
    tag = "_t0"
    while tag in I.vars:
        tag += "_"
    big_vars = (tag,) + I.vars
    t = SparsePoly.variable(big_vars, 0)
    one_minus_t = SparsePoly.one(big_vars) - t
    gens = [t * g.extend(big_vars) for g in I.generators]
    gens += [one_minus_t * g.extend(big_vars) for g in J.generators]
    gb = buchberger(gens, _BlockElimOrder(1))
    kept = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            kept.append(SparsePoly(I.vars, {e[1:]: c for e, c in g.terms.items()}))
    return Ideal(I.vars, kept)


def divide_exact(f: SparsePoly, g: SparsePoly, order: TermOrder = GREVLEX) -> SparsePoly | None:
    """f / g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return SparsePoly.zero(f.vars)
    key = order.key
    he, hc, tail = _head_and_tail(g, order)
    quotient: dict[tuple[int, ...], Fraction] = {}
    work, front = _front(f.terms, key)
    while work:
        e, c = _pop_head(work, front)
        if not _divides(he, e):
            return None
        shift = _exp_sub(e, he)
        fac = quotient[shift] = c / hc
        _subtract(work, front, key, fac, shift, tail)
    return SparsePoly(f.vars, quotient)


def quotient_by_element(I: Ideal, f: SparsePoly) -> Ideal:
    """(I : f) via (I cap (f)) / f."""
    if f.is_zero():
        raise ValueError("colon by zero")
    if I.is_zero():
        return Ideal(I.vars, [])
    inter = intersect(I, Ideal(I.vars, [f]))
    gens = []
    for g in inter.groebner_basis():
        q = divide_exact(g, f)
        if q is None:
            raise RuntimeError("intersection element not divisible by f")
        gens.append(q)
    return Ideal(I.vars, gens)


def quotient_by_ideal(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) as the intersection of single-element quotients."""
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        raise ValueError("colon by the zero ideal")
    result = quotient_by_element(I, gens[0])
    for g in gens[1:]:
        result = intersect(result, quotient_by_element(I, g))
    return result


def saturation(I: Ideal, J: Ideal, cap: int = 64) -> Ideal:
    """(I : J^infinity): iterate single-step quotients until two consecutive
    iterates agree (mutual inclusion).  Caps at `cap` steps as a bug guard."""
    current = I
    for _ in range(cap):
        step = quotient_by_ideal(current, J)
        if step.equals(current):
            return current
        current = step
    raise SaturationDivergedError(f"saturation did not stabilize within {cap} steps")


def standard_monomials(I: Ideal, order: TermOrder = GREVLEX) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials outside the head ideal; requires
    a pure-power head term for every variable (zero-dimensionality)."""
    gb = I.groebner_basis(order)
    n = len(I.vars)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    heads = [g.leading_term(order)[0] for g in gb]
    bounds = []
    for i in range(n):
        pure = [e[i] for e in heads if all(x == 0 for j, x in enumerate(e) if j != i) and e[i] > 0]
        if not pure:
            raise NotZeroDimensionalError(
                f"no pure power of {I.vars[i]} among head terms"
            )
        bounds.append(min(pure))
    out = []

    def walk(prefix):
        if len(prefix) == n:
            e = tuple(prefix)
            if not any(_divides(h, e) for h in heads):
                out.append(e)
            return
        for k in range(bounds[len(prefix)]):
            walk(prefix + [k])

    walk([])
    out.sort(key=order.key)
    return out


def ideal_power(I: Ideal, k: int) -> Ideal:
    if k == 0:
        return Ideal(I.vars, [SparsePoly.one(I.vars)])
    gens = []
    for combo in combinations_with_replacement(I.generators, k):
        p = SparsePoly.one(I.vars)
        for g in combo:
            p = p * g
        gens.append(p)
    return Ideal(I.vars, gens)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.vars, I.generators + J.generators)

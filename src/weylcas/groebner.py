"""Buchberger's algorithm and the ideal operations built on it.

Membership, colon ideals, intersections, saturation, and standard
monomials of zero-dimensional ideals.  The pair-selection loop uses the
coprime-head and chain criteria; reduced bases are computed so that a
given ideal and order determine the basis uniquely.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .poly import GREVLEX, SparsePoly, TermOrder


class NotZeroDimensionalError(ValueError):
    """The ideal has no pure-power head term for some variable."""


class SaturationDivergedError(RuntimeError):
    """Saturation failed to stabilize within the iteration cap."""


def _divides(e1: tuple[int, ...], e2: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _exp_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def reduce_poly(f: SparsePoly, basis: list[SparsePoly], order: TermOrder) -> SparsePoly:
    """Full normal form of f modulo basis: no remaining term is divisible
    by any basis head term."""
    if not basis:
        return f
    heads = [g.leading_term(order) for g in basis]
    remainder: dict[tuple[int, ...], Fraction] = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for g, (he, hc) in zip(basis, heads):
            if _divides(he, e):
                # cancel (c/hc) * x^(e-he) * g from the working sum
                shift = _exp_sub(e, he)
                fac = c / hc
                for ge, gc in g.terms.items():
                    if ge == he:
                        continue
                    te = tuple(a + b for a, b in zip(ge, shift))
                    acc = work.get(te, Fraction(0)) - fac * gc
                    if acc == 0:
                        work.pop(te, None)
                    else:
                        work[te] = acc
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
    if not basis:
        return []
    # interreduce the input to cut pair churn; one element at a time so the
    # span is preserved at every step
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
    if not basis:
        return []

    heads = [g.leading_term(order)[0] for g in basis]
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lcm_of(i, j):
        return _exp_lcm(heads[i], heads[j])

    while pending:
        i, j = min(pending, key=lambda p: order.key(lcm_of(*p)))
        pending.discard((i, j))
        l = lcm_of(i, j)
        # coprime criterion
        if l == tuple(a + b for a, b in zip(heads[i], heads[j])):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(heads[k], l):
                continue
            p1 = (min(i, k), max(i, k))
            p2 = (min(j, k), max(j, k))
            if p1 not in pending and p2 not in pending:
                skip = True
                break
        if skip:
            continue
        r = reduce_poly(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        basis.append(r)
        heads.append(r.leading_term(order)[0])
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))

    # minimalize: drop members whose head is divisible by another head
    keep = []
    for i, g in enumerate(basis):
        hi = heads[i]
        if any(
            k != i and _divides(heads[k], hi) and (heads[k] != hi or k < i)
            for k in range(len(basis))
        ):
            continue
        keep.append(g)
    # tail-reduce and normalize
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_poly(g, others, order)
        _, lc = r.leading_term(order)
        reduced.append(r * (1 / lc))
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]))
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

    @classmethod
    def from_strings(cls, variables, texts):  # convenience for tests/CLI glue
        from .parser import parse_polynomial

        vs = tuple(variables)
        return cls(vs, [parse_polynomial(t, vs) for t in texts])

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
            sum(front),
            tuple(-x for x in reversed(front)),
            sum(back),
            tuple(-x for x in reversed(back)),
        )

    def __eq__(self, other):
        return isinstance(other, _BlockElimOrder) and self.n_front == other.n_front

    def __hash__(self):
        return hash(("elim", self.n_front))


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
    quotient: dict[tuple[int, ...], Fraction] = {}
    work = dict(f.terms)
    he, hc = g.leading_term(order)
    while work:
        e = max(work, key=order.key)
        if not _divides(he, e):
            return None
        shift = _exp_sub(e, he)
        fac = work[e] / hc
        quotient[shift] = fac
        for ge, gc in g.terms.items():
            te = tuple(a + b for a, b in zip(ge, shift))
            acc = work.get(te, Fraction(0)) - fac * gc
            if acc == 0:
                work.pop(te, None)
            else:
                work[te] = acc
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

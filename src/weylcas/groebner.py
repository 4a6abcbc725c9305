"""Buchberger's algorithm and the ideal operations built on it.

Membership, colon ideals, intersections, saturation, and standard
monomials of zero-dimensional ideals.  Saturation is one elimination of a
tag variable per generator (Rabinowitsch; Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 4 sec. 4), with no iteration cap.

An order is its weight rows (`TermOrder`).  Bases can be grevlex or lex;
the eliminations use `_TAG_ELIMINATION`, the tag variable first and then
grevlex on the rest.  Reduction modulo an `Ideal`, membership and exact
division always use grevlex, since their answers do not depend on the
order.

Bases are built incrementally by signatures (Eder and Perry, F5C, JSC 45,
2010; Roune and Stillman, ISSAC 2012).  The generators are taken by
ascending head, and each is reduced by a minimal Groebner basis G of those
before it.  The elements the i-th generator adds carry signatures x^t e_i,
and their S-pairs are processed by increasing t (position over term).  A t
that the head of an element of G or the signature of an earlier zero
reduction divides belongs to a syzygy and is skipped.  Otherwise t is
rewritten to the element whose signature divides it and whose multiple has
the smallest head, and that multiple is reduced regularly: an element of G
divides freely, an element of this step only when the signature of its
multiple lies below t.  A multiple whose head nothing divides regularly is
dropped unreduced, so that pairs which would reduce to zero are proven
useless before any work.  G is fixed within a step, so all reductions of a
step share one memo of each monomial's first divisor in G.  Tail reduction
and making the basis monic happen once, at the end, on the tails alone: each
is reduced by the whole basis with one memo, since a head divides no term
below it.  An eliminated ideal starts with its grevlex basis in place
(`_eliminate_tag`).  Reductions keep their working terms in a heap front.

Inside the reduction kernel a monomial is one int (Monagan and Pearce,
"Sparse polynomial division using a heap", JSC 46, 2011; `_Packing`).  The
low bits hold the exponents, one field per variable whose top bit is a
guard; above them sit the order's weight rows (`TermOrder.rows`), so int
comparison is the term order, a product is a sum, a divides b iff
((b | G) - a) & G == G for the guard mask G, and a new term overflows its
fields iff te & G.  The field width comes from the input's largest
exponent; a term that overflows restarts the whole computation at double
the width (`_widening`); every caller shares one packing per order, variable
count and width.  Signatures are packed monomials tested the same way.
Exponent tuples are packed and unpacked only at the `SparsePoly` boundary:
input records, the final basis, remainders and quotients.

Reduction runs on primitive integer polynomials: basis elements are split
into head and tail once (an `Ideal` keeps these divisor records, with their
packing, next to each cached basis), and a head c*x^e divided by a head
h*x^f first scales the working terms by h/gcd(c, h) (pseudo-division).
Only the final reduced basis, unique for the ideal and order, is made monic
over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import itemgetter, le, mul, sub

from .poly import GREVLEX, SparsePoly, TermOrder, exact_ratio


class NotZeroDimensionalError(ValueError):
    """The ideal has no pure-power head term for some variable."""


class _Overflow(Exception):
    """A new term does not fit the packed field width."""


class _Packing:
    """Monomials of one order in nvars variables, packed into ints with
    fields `width` bits wide.  Field i of the low part (bits i*width up)
    holds the exponent of variable i below its guard bit; above the low
    part each weight row of the order gets a field wide enough for the sum
    of its exponents, the most significant row highest.  Packing is linear,
    so pack(e) is the dot product of e with the packed unit monomials."""

    __slots__ = ("order", "width", "guard", "units", "shifts", "field")

    def __init__(self, order: TermOrder, nvars: int, width: int):
        rows = order.rows(nvars)
        row_width = width - 1 + max(map(len, rows), default=1).bit_length()
        self.units = [1 << (i * width) for i in range(nvars)]
        for k, row in enumerate(reversed(rows)):
            bit = 1 << (nvars * width + k * row_width)
            for i in row:
                self.units[i] += bit
        self.order = order
        self.width = width
        self.shifts = [i * width for i in range(nvars)]
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.field = (1 << (width - 1)) - 1

    def pack(self, e) -> int:
        return sum(map(mul, e, self.units))

    def unpack(self, m: int) -> tuple[int, ...]:
        field = self.field
        return tuple([(m >> s) & field for s in self.shifts])

    def packed(self, terms) -> dict:
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}


# one packing per (order, nvars, width), shared: packings never change
_packing = lru_cache(maxsize=64)(_Packing)


def _width(polys) -> int:
    """The field width for these polynomials: the least power of two from 8
    up whose field holds twice their largest exponent below the guard."""
    top = max([max(e, default=0) for g in polys for e in g.terms], default=0)
    width = 8
    while 1 << (width - 1) <= 2 * top:
        width *= 2
    return width


def _widening(run, polys):
    """run(width) from the width of polys, doubling the width and running
    again from scratch while a term overflows."""
    width = _width(polys)
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def _divides(a: int, b: int, guard: int) -> bool:
    """Whether packed monomial a divides b: no field of b - a borrows from
    its guard bit."""
    return ((b | guard) - a) & guard == guard


def _front(terms):
    """The working terms of a reduction and their front: a heap of negated
    packed monomials, so the largest term pops first."""
    front = [-e for e in terms]
    heapify(front)
    return dict(terms), front


def _pop_head(work, front):
    """Remove and return the largest working term.  Heap entries whose term
    has cancelled are skipped."""
    while True:
        e = -heappop(front)
        c = work.pop(e, None)
        if c is not None:
            return e, c


def _subtract(work, front, fac, shift, tail, guard):
    """work -= fac * x^shift * tail.  Every new term lies below the head just
    popped, so the front only moves down.  A new term whose guard bits are
    set has overflowed its fields: it differs from every term that fits, so
    only new terms are tested."""
    for ge, gc in tail:
        te = ge + shift
        old = work.get(te)
        if old is None:
            if te & guard:
                raise _Overflow
            work[te] = -fac * gc
            heappush(front, -te)
        else:
            acc = old - fac * gc
            if acc:
                work[te] = acc
            else:
                del work[te]


def _primitive(terms):
    """(p, den, num): the integer term map p = (den / num) * terms whose
    coefficients have gcd 1, with den, num > 0 ints."""
    den = lcm(*[c.denominator for c in terms.values()])
    num = gcd(*[c.numerator for c in terms.values()]) or 1
    return {e: c.numerator * (den // c.denominator) // num for e, c in terms.items()}, den, num


def _record(ints):
    """A divisor of the integer reduction: (head, head coefficient, tail) on
    packed monomials, split once."""
    he = max(ints)
    return he, ints[he], [(e, c) for e, c in ints.items() if e != he]


def _divisor_records(basis, packing):
    """The divisor records of the nonzero basis elements, in basis order."""
    return [_record(_primitive(packing.packed(g.terms))[0]) for g in basis if g.terms]


def _reduce(work, front, divisors, guard, memo, signed=(), limit=None):
    """Pseudo-reduce the integer working terms by the divisor records: each
    term is divided by the first divisor whose head divides it, after the
    working terms and the remainder are scaled so that the division is exact
    on integers.  `memo` maps a packed monomial to its first divisor, or
    False if none divides it; it may be shared by reductions by the same
    divisors.  A reduction at signature `limit` also tries the `signed`
    records (head, head coefficient, tail, signature) after the divisors;
    such a record divides a term e only when the signature of its multiple,
    (e - head) + signature, lies below the limit, so the reduction is regular.
    Returns the primitive remainder r and the positive ints lam, content
    with content * r = lam * (the normal form of the input)."""
    remainder = {}
    lam = 1
    while work:
        e, c = _pop_head(work, front)
        d = memo.get(e)
        if d is None:
            eg = e | guard
            for d in divisors:
                if (eg - d[0]) & guard == guard:
                    break
            else:
                d = False
            memo[e] = d
        if d:
            he, hc, tail = d
        else:
            eg = e | guard
            for he, hc, tail, sig in signed:
                if (eg - he) & guard == guard:
                    t = e - he + sig
                    if t & guard:
                        raise _Overflow
                    if t < limit:
                        break
            else:
                remainder[e] = c
                continue
        g = gcd(c, hc)
        m, q = hc // g, c // g
        if m < 0:
            m, q = -m, -q
        if m != 1:
            work = {t: v * m for t, v in work.items()}
            remainder = {t: v * m for t, v in remainder.items()}
            lam *= m
        _subtract(work, front, q, e - he, tail, guard)
    content = gcd(*remainder.values()) or 1
    if content != 1:
        remainder = {e: c // content for e, c in remainder.items()}
    return remainder, lam, content


def _normal_form(f, divisors, packing):
    """reduce_poly on divisor records built beforehand with `packing`, which
    must hold the exponents of f."""
    if not divisors or not f.terms:
        return f
    ints, den, num = _primitive(packing.packed(f.terms))
    r, lam, content = _reduce(*_front(ints), divisors, packing.guard, {})
    if r == ints:  # no term was divisible
        return f
    # content * num * r = lam * den * (normal form of f)
    a, b = content * num, lam * den
    unpack = packing.unpack
    return SparsePoly._clean(f.vars, {unpack(m): exact_ratio(c * a, b) for m, c in r.items()})


def reduce_poly(f: SparsePoly, basis: list[SparsePoly], order: TermOrder) -> SparsePoly:
    """Full normal form of f modulo basis: no remaining term is divisible
    by any basis head term.  Each term is divided by the first basis
    element whose head divides it; zero elements divide nothing."""
    for g in basis:
        f._check_same_ring(g)

    def run(width):
        packing = _packing(order, len(f.vars), width)
        return _normal_form(f, _divisor_records(basis, packing), packing)

    return _widening(run, [f, *basis])


def s_polynomial(f: SparsePoly, g: SparsePoly, order: TermOrder) -> SparsePoly:
    ef, cf = f.leading_term(order)
    eg, cg = g.leading_term(order)
    l = tuple(map(max, ef, eg))
    mf = SparsePoly.monomial(f.vars, tuple(map(sub, l, ef)), Fraction(1) / cf)
    mg = SparsePoly.monomial(f.vars, tuple(map(sub, l, eg)), Fraction(1) / cg)
    return mf * f - mg * g


def buchberger(generators: list[SparsePoly], order: TermOrder) -> list[SparsePoly]:
    """Reduced Groebner basis of the ideal generated by `generators`."""
    for g in generators[1:]:
        generators[0]._check_same_ring(g)
    if not any(g.terms for g in generators):
        return []
    nvars = len(generators[0].vars)
    return _widening(lambda width: _buchberger(generators, _packing(order, nvars, width)),
                     generators)


def _buchberger(generators, packing):
    """buchberger at one packing; raises _Overflow."""
    guard, pack, unpack = packing.guard, packing.pack, packing.unpack

    def shifted(shift, m):
        """The packed monomial shift + m; raises _Overflow if it overflows."""
        t = shift + m
        if t & guard:
            raise _Overflow
        return t

    exps = {}  # the heads unpacked, for lcms
    basis = []  # a minimal Groebner basis of the generators taken so far
    for rec in sorted(_divisor_records(generators, packing), key=itemgetter(0)):
        memo = {}  # first divisors in basis, which this step does not change
        r = _reduce(*_front(dict([rec[:2]] + rec[2])), basis, guard, memo)[0]
        if not r:
            continue
        heads = [g[0] for g in basis]  # the principal syzygies x^h e_i
        step = []  # (head, head coefficient, tail, signature) of this generator's elements
        syzygies = []  # signatures of zero reductions
        pending = []  # heap of S-pair signatures

        def add(rec, sig):
            h = rec[0]
            eh = exps[h] = unpack(h)
            for g in heads:
                heappush(pending, shifted(pack(tuple(map(max, eh, exps[g]))) - h, sig))
            for g, _, _, gsig in step:
                l = pack(tuple(map(max, eh, exps[g])))
                t, u = shifted(l - h, sig), shifted(l - g, gsig)
                if t != u:
                    heappush(pending, max(t, u))
            step.append(rec + (sig,))

        add(_record(r), 0)
        while pending:
            t = heappop(pending)
            while pending and pending[0] == t:
                heappop(pending)
            if any(_divides(s, t, guard) for s in heads) or any(
                    _divides(s, t, guard) for s in syzygies):
                continue
            # rewrite: of the elements whose signature divides t, the one
            # whose multiple has the smallest head
            h, hc, tail, sig = min((b for b in step if _divides(b[3], t, guard)),
                                   key=lambda b: t - b[3] + b[0])
            # a multiple whose head nothing divides regularly is singular
            # top-reducible: reducing it would add nothing
            top = shifted(t - sig, h)
            if not (any(_divides(g, top, guard) for g in heads) or any(
                    _divides(b[0], top, guard) and shifted(top - b[0], b[3]) < t
                    for b in step)):
                continue
            work, front = {}, []
            _subtract(work, front, -1, t - sig, [(h, hc)] + tail, guard)
            r = _reduce(work, front, basis, guard, memo, step, t)[0]
            if r:
                add(_record(r), t)
            else:
                syzygies.append(t)
        kept = []  # a minimal basis: by ascending head, drop every head a kept one divides
        for rec in sorted(basis + [b[:3] for b in step], key=itemgetter(0)):
            if not any(_divides(g[0], rec[0], guard) for g in kept):
                kept.append(rec)
        basis = kept

    out = []
    memo = {}  # the tails by the whole basis: a head divides no term below it
    for he, hc, tail in basis:
        r, lam, content = _reduce(*_front(dict(tail)), basis, guard, memo)
        terms = {unpack(he): 1}
        terms.update((unpack(m), exact_ratio(c * content, hc * lam)) for m, c in r.items())
        out.append(SparsePoly._clean(generators[0].vars, terms))
    return out


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
        # the packing and divisor records of the grevlex basis, built on
        # first reduction and again only when a reduction needs wider fields
        self._records_cache: tuple[_Packing, list] | None = None

    def groebner_basis(self, order: TermOrder = GREVLEX) -> list[SparsePoly]:
        if order not in self._gb_cache:
            self._gb_cache[order] = buchberger(self.generators, order)
        return self._gb_cache[order]

    def contains(self, f: SparsePoly) -> bool:
        if f.is_zero() and f.vars == self.vars:
            return True
        return self.reduce(f).is_zero()

    def reduce(self, f: SparsePoly) -> SparsePoly:
        """The normal form of f modulo the grevlex basis."""
        if f.vars != self.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {f.vars}")
        width = _width([f])
        while True:
            if self._records_cache is None or self._records_cache[0].width < width:
                basis = self.groebner_basis()
                packing = _packing(GREVLEX, len(self.vars), max(width, _width(basis)))
                self._records_cache = (packing, _divisor_records(basis, packing))
            packing, divisors = self._records_cache
            try:
                return _normal_form(f, divisors, packing)
            except _Overflow:
                width = 2 * packing.width

    def is_zero(self) -> bool:
        # no zero generator is kept
        return not self.generators

    def contains_one(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def __repr__(self):
        return f"Ideal({', '.join(g.to_str() for g in self.generators) or '0'})"


# the tag variable, first, alone; then grevlex on the rest
_TAG_ELIMINATION = TermOrder(
    "tag-elimination", lambda n: [(0,)] + [tuple(range(1, k)) for k in range(n, 1, -1)])


def _eliminate_tag(vs, pairs) -> Ideal:
    """The ideal of Q[vs] that the elements a + t*b, for the pairs (a, b)
    over Q[vs], generate in Q[t, vs] cut down to Q[vs], for a fresh tag
    variable t: the t-free elements of its reduced basis under an order
    that eliminates t.  They are a Groebner basis of that ideal under the
    restricted order (Cox, Little and O'Shea, ch. 3 sec. 1, Thm. 2), which
    on t-free monomials is grevlex; as part of a reduced basis they are
    reduced, and they come by ascending head.  So they are the grevlex basis
    that `buchberger` would return, and the Ideal starts with it cached."""
    tag = "_t0"
    while tag in vs:
        tag += "_"
    big_vars = (tag,) + vs
    # a + t*b written directly: the terms of a at t-degree 0 and of b at 1
    gb = buchberger([SparsePoly._clean(big_vars, {(0,) + e: c for e, c in a.terms.items()}
                                       | {(1,) + e: c for e, c in b.terms.items()})
                     for a, b in pairs], _TAG_ELIMINATION)
    basis = [SparsePoly._clean(vs, {e[1:]: c for e, c in g.terms.items()})
             for g in gb if all(e[0] == 0 for e in g.terms)]
    ideal = Ideal(vs, basis)
    ideal._gb_cache[GREVLEX] = list(basis)
    return ideal


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J = (t*I + (1 - t)*J) cap Q[x]."""
    if I.vars != J.vars:
        raise ValueError("ideals over different rings")
    if I.is_zero() or J.is_zero():
        return Ideal(I.vars, [])
    zero = SparsePoly.zero(I.vars)
    return _eliminate_tag(I.vars, [(zero, g) for g in I.generators]
                          + [(h, -h) for h in J.generators])


def divide_exact(f: SparsePoly, g: SparsePoly) -> SparsePoly | None:
    """f / g when g divides f exactly, else None.  The quotient does not
    depend on the order; the division runs under grevlex."""
    f._check_same_ring(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return SparsePoly.zero(f.vars)
    return _widening(lambda width: _divide_exact(f, g, _packing(GREVLEX, len(f.vars), width)),
                     [f, g])


def _divide_exact(f, g, packing):
    """divide_exact at one packing; raises _Overflow."""
    guard = packing.guard
    tail = packing.packed(g.terms)
    he = max(tail)
    hc = tail.pop(he)
    tail = list(tail.items())
    quotient = {}
    work, front = _front(packing.packed(f.terms))
    while work:
        e, c = _pop_head(work, front)
        if not _divides(he, e, guard):
            return None
        shift = e - he
        fac = quotient[shift] = exact_ratio(c, hc)
        _subtract(work, front, fac, shift, tail, guard)
    unpack = packing.unpack
    return SparsePoly._clean(f.vars, {unpack(m): c for m, c in quotient.items()})


def quotient_by_element(I: Ideal, f: SparsePoly) -> Ideal:
    """(I : f) via (I cap (f)) / f."""
    if f.vars != I.vars:
        raise ValueError("generator over the wrong ring")
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
    if not J.generators:
        raise ValueError("colon by the zero ideal")
    return reduce(intersect, (quotient_by_element(I, g) for g in J.generators))


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity) as the intersection, over the generators g of J, of
    (I : g^infinity) = (I + (1 - t*g)) cap Q[x] (Rabinowitsch; Cox, Little
    and O'Shea, ch. 4 sec. 4): one elimination per generator, with no
    iteration cap."""
    if not J.generators:
        raise ValueError("colon by the zero ideal")
    if J.vars != I.vars:
        raise ValueError("generator over the wrong ring")
    one, zero = SparsePoly.one(I.vars), SparsePoly.zero(I.vars)
    return reduce(intersect, (_eliminate_tag(I.vars, [(f, zero) for f in I.generators]
                                             + [(one, -g)]) for g in J.generators))


def standard_monomials(I: Ideal) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials outside the grevlex head ideal,
    in grevlex order; requires a pure-power head term for every variable
    (zero-dimensionality)."""
    gb = I.groebner_basis()
    n = len(I.vars)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    heads = [g.leading_term()[0] for g in gb]
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
            if not any(all(map(le, h, e)) for h in heads):
                out.append(e)
            return
        for k in range(bounds[len(prefix)]):
            walk(prefix + [k])

    walk([])
    out.sort(key=GREVLEX.key_for(n))
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

"""Weyl algebras and single-variable differential polynomial rings.

Elements are kept in left normal form (polynomial coefficients to the left
of the operator monomials) or right normal form (coefficients to the
right); each abstract element has exactly one of each.  Products, both
normal forms, the action on polynomials and the (*) test all move op^alpha
past one monomial x^e at a time, by the Leibniz rule

    op^alpha * x^e  =  sum_{beta <= alpha} C(alpha, beta) delta^(alpha-beta)(x^e) op^beta
    x^e * op^alpha  =  sum_{beta <= alpha} (-1)^|alpha-beta| C(alpha, beta) op^beta delta^(alpha-beta)(x^e)

and add the terms into one flat {(beta, exponent): coefficient} map, which
is regrouped into polynomial coefficients once per operation.  The leaf is
the table of derivatives delta_k^i(x^e).  For a Weyl generator it is the
falling factorial e_k!/(e_k - i)! x^(e - i u_k), with u_k the k-th unit
vector, so the Weyl kernel works on integers alone; for the Ore variable
the attached derivation is iterated on the monomial.  The formula is exact
because the Weyl derivations commute and an Ore ring has a single
operator.  The acceptance battery checks it against the bare rewrite rule
op_k * a -> a * op_k + delta_k(a).

The Weyl algebra acts on a localization R_f by the quotient rule, and a
fraction num/base^power keeps one presentation over its base: the base
monic and the power least, with no gcd taken.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from operator import add

from .groebner import Ideal, divide_exact
from .poly import GREVLEX, SparsePoly, TermOrder, power_by_squaring


class StarBoundNotFoundError(RuntimeError):
    """verify_star exhausted r_max without finding a working exponent."""


class OreRing:
    """Either the n-th Weyl algebra over Q[vars] (one d-symbol per variable)
    or Q[vars][X; delta] with a single skew variable X and derivation delta
    given on the ring variables and extended by the Leibniz rule."""

    def __init__(self, variables, kind: str = "weyl",
                 delta_on_vars: list[SparsePoly] | None = None):
        self.vars = tuple(variables)
        self.kind = kind
        if kind == "weyl":
            self.n_ops = len(self.vars)
            self.op_names = tuple(f"d{i + 1}" for i in range(self.n_ops))
            self.delta_on_vars = None
        elif kind == "ore":
            if delta_on_vars is None or len(delta_on_vars) != len(self.vars):
                raise ValueError("ore kind needs delta values for every ring variable")
            for d in delta_on_vars:
                if d.vars != self.vars:
                    raise ValueError("delta value over the wrong ring")
            self.n_ops = 1
            self.op_names = ("X",)
            self.delta_on_vars = tuple(delta_on_vars)
        else:
            raise ValueError(f"unknown kind {kind!r}")

    @classmethod
    def weyl(cls, variables) -> "OreRing":
        return cls(variables, "weyl")

    @classmethod
    def differential_polynomial(cls, variables, delta_on_vars) -> "OreRing":
        return cls(variables, "ore", delta_on_vars=delta_on_vars)

    def delta(self, k: int, p: SparsePoly) -> SparsePoly:
        """The derivation attached to operator symbol k, applied to p."""
        if self.kind == "weyl":
            return p.partial(k)
        # Leibniz extension of the generator rule: sum_i (dp/dx_i) delta(x_i)
        out = SparsePoly.zero(self.vars)
        for i, d in enumerate(self.delta_on_vars):
            out = out + p.partial(i) * d
        return out

    def derivatives(self, k: int, e: tuple[int, ...], top: int) -> list[dict]:
        """delta_k^i(x^e) for i = 0..top as term maps, cut before the first
        zero: the falling factorial e_k!/(e_k - i)! x^(e - i u_k) for a
        Weyl generator, the attached derivation iterated on x^e for X."""
        table = [{e: 1}]
        if self.kind == "weyl":
            head, ek, tail, c = e[:k], e[k], e[k + 1:], 1
            for i in range(1, min(top, ek) + 1):
                c *= ek - i + 1
                table.append({head + (ek - i,) + tail: c})
            return table
        p = SparsePoly._clean(self.vars, table[0])
        for _ in range(top):
            p = self.delta(k, p)
            if p.is_zero():
                break
            table.append(p.terms)
        return table

    def zero_alpha(self) -> tuple[int, ...]:
        return (0,) * self.n_ops

    def __eq__(self, other):
        return (
            isinstance(other, OreRing)
            and self.vars == other.vars
            and self.kind == other.kind
            and self.delta_on_vars == other.delta_on_vars
        )

    def __hash__(self):
        return hash((self.vars, self.kind, self.delta_on_vars))

    def __repr__(self):
        if self.kind == "weyl":
            return f"OreRing(weyl, vars={self.vars})"
        return f"OreRing(ore, vars={self.vars})"


def _add_term(terms: dict, alpha: tuple[int, ...], coeff: SparsePoly):
    if coeff.is_zero():
        return
    acc = terms.get(alpha)
    s = coeff if acc is None else acc + coeff
    if s.is_zero():
        terms.pop(alpha, None)
    else:
        terms[alpha] = s


class DiffOp:
    """An element of an OreRing in left or right normal form.

    Left form is sum coeff_alpha * op^alpha; right form is
    sum op^alpha * coeff_alpha.
    """

    __slots__ = ("ring", "form", "terms")

    def __init__(self, ring: OreRing, terms: dict, form: str = "left"):
        if form not in ("left", "right"):
            raise ValueError("form must be 'left' or 'right'")
        self.ring = ring
        self.form = form
        cleaned = {}
        for alpha, c in terms.items():
            a = tuple(alpha)
            if len(a) != ring.n_ops or any(k < 0 for k in a):
                raise ValueError(f"bad operator exponent {a}")
            if c.vars != ring.vars:
                raise ValueError("coefficient over the wrong base ring")
            if not c.is_zero():
                _add_term(cleaned, a, c)
        self.terms = cleaned

    @classmethod
    def _from_flat(cls, ring: OreRing, flat: dict, form: str) -> "DiffOp":
        """The operator of a flat {(alpha, exponent): coeff} map, zeros
        dropped; trusted like SparsePoly._clean, so nothing is checked."""
        terms: dict = {}
        for (alpha, e), c in flat.items():
            if c:
                terms.setdefault(alpha, {})[e] = c
        op = object.__new__(cls)
        op.ring, op.form = ring, form
        op.terms = {alpha: SparsePoly._clean(ring.vars, t) for alpha, t in terms.items()}
        return op

    # ---------- constructors ----------

    @classmethod
    def from_poly(cls, ring: OreRing, p: SparsePoly) -> "DiffOp":
        return cls(ring, {ring.zero_alpha(): p}, "left")

    @classmethod
    def zero(cls, ring: OreRing) -> "DiffOp":
        return cls(ring, {}, "left")

    @classmethod
    def one(cls, ring: OreRing) -> "DiffOp":
        return cls.from_poly(ring, SparsePoly.one(ring.vars))

    @classmethod
    def operator(cls, ring: OreRing, k: int, power: int = 1) -> "DiffOp":
        alpha = [0] * ring.n_ops
        alpha[k] = power
        return cls(ring, {tuple(alpha): SparsePoly.one(ring.vars)}, "left")

    # ---------- structure ----------

    def is_zero(self) -> bool:
        return not self.terms

    def op_order(self) -> int:
        """Max |alpha| over stored terms; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def _lift(self, other) -> "DiffOp":
        """A DiffOp over this ring, a polynomial or a rational as a DiffOp."""
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.ring.vars, other)
        if isinstance(other, SparsePoly):
            return DiffOp.from_poly(self.ring, other)
        if not isinstance(other, DiffOp):
            raise TypeError(f"coefficient must be int or Fraction, got {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError("operators over different rings")
        return other

    # ---------- normal forms ----------

    def to_left(self) -> "DiffOp":
        """Left normal form of the same abstract element."""
        return self if self.form == "left" else self._flip("left", 1)

    def to_right(self) -> "DiffOp":
        """Right normal form of the same abstract element."""
        return self if self.form == "right" else self._flip("right", -1)

    def _flip(self, form: str, sign: int) -> "DiffOp":
        out, moved = {}, {}
        for alpha, c in self.terms.items():
            _add_moved(out, self.ring, alpha, c, sign, None, None, moved)
        return DiffOp._from_flat(self.ring, out, form)

    # ---------- arithmetic ----------

    def __add__(self, other):
        a, b = self.to_left(), self._lift(other).to_left()
        terms = dict(a.terms)
        for alpha, c in b.terms.items():
            _add_term(terms, alpha, c)
        return DiffOp(self.ring, terms, "left")

    def __neg__(self):
        return DiffOp(self.ring, {a: -c for a, c in self.terms.items()}, self.form)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiffOp(self.ring, {a: c * other for a, c in self.terms.items()}, self.form)
        a, b = self.to_left(), self._lift(other).to_left()
        out, moved = {}, {}
        for beta, psi in b.terms.items():
            for alpha, phi in a.terms.items():
                # phi * op^alpha * psi * op^beta
                _add_moved(out, self.ring, alpha, psi, 1, phi.terms, beta, moved)
        return DiffOp._from_flat(self.ring, out, "left")

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, SparsePoly):
            return DiffOp.from_poly(self.ring, other) * self
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        # the left normal form is unique, so it equals that of the k-fold product
        return DiffOp.one(self.ring) if k == 0 else power_by_squaring(self, k).to_left()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.ring.vars, other)
        if isinstance(other, SparsePoly):
            if other.vars != self.ring.vars:
                return False
            other = DiffOp.from_poly(self.ring, other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.ring != other.ring:
            return False
        a, b = self.to_left(), other.to_left()
        return a.terms == b.terms

    def __hash__(self):
        a = self.to_left()
        if not any(map(any, a.terms)):
            # equal to its coefficient polynomial, so it hashes as that
            return hash(a.terms.get(a.ring.zero_alpha(), SparsePoly.zero(a.ring.vars)))
        return hash((a.ring, frozenset((k, v) for k, v in a.terms.items())))

    # ---------- module action ----------

    def apply(self, m):
        """Act on a base-ring polynomial or a LocalizedFraction.

        The Weyl generators act as partial derivatives (quotient rule on
        fractions); the Ore variable acts as the attached derivation.
        """
        left = self.to_left()
        if isinstance(m, SparsePoly):
            if m.vars != self.ring.vars:
                raise ValueError("module element over the wrong ring")
            out = {}
            for alpha, phi in left.terms.items():
                for e, c in m.terms.items():
                    # delta^alpha(c x^e), one operator at a time: a Weyl step
                    # maps one monomial to one and an Ore ring has one step,
                    # so no two terms of a step share a key
                    terms = {e: c}
                    for k, a in enumerate(alpha):
                        if a:
                            terms = {g: w * v for f, w in terms.items() for d in
                                     self.ring.derivatives(k, f, a)[a:] for g, v in d.items()}
                    for f, v in terms.items():
                        for h, w in phi.terms.items():
                            key = tuple(map(add, f, h))
                            out[key] = out.get(key, 0) + v * w
            return SparsePoly._clean(m.vars, {e: c for e, c in out.items() if c})
        if isinstance(m, LocalizedFraction):
            if self.ring.kind != "weyl":
                raise ValueError("fractions only carry a Weyl action")
            if m.num.vars != self.ring.vars:
                raise ValueError("module element over the wrong ring")
            out = LocalizedFraction.zero_like(m)
            for alpha, phi in left.terms.items():
                v = m
                for k, p in enumerate(alpha):
                    for _ in range(p):
                        v = v.partial(k)
                out = out + v.scale(phi)
            return out
        raise TypeError(f"cannot apply operator to {type(m).__name__}")

    # ---------- printing ----------

    def to_str(self, order: TermOrder = GREVLEX) -> str:
        from .parser import diffop_to_str

        return diffop_to_str(self, order)

    def __repr__(self):
        return f"DiffOp({self.to_str()}, form={self.form})"


def _move(ring: OreRing, alpha: tuple, e: tuple, sign: int) -> dict:
    """op^alpha moved past x^e, as {(beta, exponent): coeff}: with sign +1
    the left normal form of op^alpha * x^e, with sign -1 the right normal
    form of x^e * op^alpha.  One operator at a time, each term c x^f becomes
    sum_i C(a_k, i) sign^i c delta_k^i(x^f) at beta_k = a_k - i.  Distinct
    terms have distinct i, so no two terms of the result share a key."""
    out = {((), e): 1}
    for k, a in enumerate(alpha):
        if not a:
            out = {(head + (0,), f): c for (head, f), c in out.items()}
            continue
        nxt = {}
        for (head, f), c in out.items():
            for i, d in enumerate(ring.derivatives(k, f, a)):
                w = c * comb(a, i) if sign > 0 or i % 2 == 0 else -c * comb(a, i)
                beta = head + (a - i,)
                for g, v in d.items():
                    nxt[beta, g] = w * v
        out = nxt
    return out


def _add_moved(out: dict, ring: OreRing, alpha: tuple, p: SparsePoly, sign: int,
               factor: dict | None, shift: tuple | None, moved: dict):
    """Add to the flat map out the terms of op^alpha moved past p (`_move`
    with this sign, term by term), each times every term of the term map
    factor (1 when None) and with op^shift on its operator side (none when
    None).  moved memoises `_move` by (alpha, e) for one call and one sign."""
    for e, c in p.terms.items():
        m = moved.get((alpha, e))
        if m is None:
            m = moved[alpha, e] = _move(ring, alpha, e, sign)
        for (gamma, f), v in m.items():
            if shift is not None:
                gamma = tuple(map(add, gamma, shift))
            cv = c * v
            if factor is None:
                key = (gamma, f)
                out[key] = out.get(key, 0) + cv
                continue
            for h, d in factor.items():
                key = (gamma, tuple(map(add, f, h)))
                out[key] = out.get(key, 0) + cv * d


class LocalizedFraction:
    """num / base^power over Q[vars], an element of the localization R_base.

    Over its base a fraction has one presentation: the base made monic by
    its grevlex leading coefficient, and the power least, so the base does
    not divide num when power > 0 (power 0 means base 1).  No gcd is taken,
    so x / x^2 stays over x^2.  Derivatives keep the base, a polynomial
    added joins it, and fractions over other bases compare by
    cross-multiplication.
    """

    __slots__ = ("num", "base", "power")

    def __init__(self, num: SparsePoly, base: SparsePoly, power: int):
        if base.is_zero() or (base.is_constant() and power > 0 and base.constant_value() == 0):
            raise ZeroDivisionError("zero denominator base")
        if power < 0:
            raise ValueError("negative denominator power")
        num, base, power = _simplify_fraction(num, base, power)
        self.num = num
        self.base = base
        self.power = power

    @classmethod
    def from_poly(cls, p: SparsePoly) -> "LocalizedFraction":
        return cls(p, SparsePoly.one(p.vars), 0)

    @classmethod
    def zero_like(cls, other: "LocalizedFraction") -> "LocalizedFraction":
        return cls(SparsePoly.zero(other.num.vars), SparsePoly.one(other.num.vars), 0)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def scale(self, p: SparsePoly) -> "LocalizedFraction":
        return LocalizedFraction(self.num * p, self.base, self.power)

    def __add__(self, other: "LocalizedFraction"):
        if self.num.vars != other.num.vars:
            raise ValueError("fractions over different rings")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # an operand of power 0 is a polynomial and joins the other's base
        base = other.base if self.power == 0 else self.base
        if other.power == 0 or other.base == base:
            k = max(self.power, other.power)
            num = (self.num * base ** (k - self.power)
                   + other.num * base ** (k - other.power))
            return LocalizedFraction(num, base, k)
        num = (self.num * other.base ** other.power
               + other.num * self.base ** self.power)
        denom = self.base ** self.power * other.base ** other.power
        return LocalizedFraction(num, denom, 1)

    def __neg__(self):
        return LocalizedFraction(-self.num, self.base, self.power)

    def __sub__(self, other):
        return self + (-other)

    def partial(self, k: int) -> "LocalizedFraction":
        """Quotient rule: d(p/b^m) = (dp * b - m * p * db) / b^(m+1)."""
        if self.power == 0:
            return LocalizedFraction(self.num.partial(k), self.base, 0)
        num = self.num.partial(k) * self.base - self.power * self.num * self.base.partial(k)
        return LocalizedFraction(num, self.base, self.power + 1)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            other = LocalizedFraction.from_poly(other)
        if not isinstance(other, LocalizedFraction):
            return NotImplemented
        # cross-multiplication; valid over a domain
        return (self.num * other.base ** other.power
                == other.num * self.base ** self.power)

    def __hash__(self):
        raise TypeError("LocalizedFraction is unhashable; compare with ==")

    def to_str(self) -> str:
        if self.power == 0:
            return self.num.to_str()
        denom = self.base.to_str()
        if self.power > 1:
            denom = f"({denom})^{self.power}" if len(self.base.terms) > 1 else f"{denom}^{self.power}"
        elif len(self.base.terms) > 1:
            denom = f"({denom})"
        num = self.num.to_str()
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/{denom}"

    def __repr__(self):
        return f"LocalizedFraction({self.to_str()})"


def _simplify_fraction(num: SparsePoly, base: SparsePoly, power: int):
    """num / base^power in the one presentation `LocalizedFraction` keeps."""
    one = SparsePoly.one(num.vars)
    if num.is_zero() or power == 0:
        return num, one, 0
    lead = base.leading_term()[1]
    if lead != 1:
        num, base = num * (Fraction(1) / lead ** power), base * (Fraction(1) / lead)
    if base == one:
        return num, one, 0
    while power > 0:
        q = divide_exact(num, base)
        if q is None:
            break
        num, power = q, power - 1
    return (num, base, power) if power else (num, one, 0)


# ---------- left-ideal membership and assumption (*) ----------

def in_left_ideal_si(t: DiffOp, I: Ideal) -> bool:
    """Membership of t in S*I: every right-normal-form coefficient lies in I.

    If t = sum s_j a_j with a_j in I, putting each s_j in right form and
    multiplying by a_j on the right keeps all right coefficients in I; the
    converse regroups sum op^alpha psi_alpha along generators of I.  This
    turns the noncommutative membership question into commutative Groebner
    membership.
    """
    # the coefficients of least degree, the likeliest outside I, go first
    coeffs = sorted(t.to_right().terms.values(), key=SparsePoly.total_degree)
    return all(I.contains(psi) for psi in coeffs)


def verify_star(I: Ideal, s: DiffOp, r_max: int) -> int:
    """Least r <= r_max with I^r * s contained in S*I.

    Checked on all r-fold products of generators of I; for an operator of
    order m the answer is at most m + 1.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if I.is_zero():
        raise ValueError("(*) needs a nonzero ideal")
    gens, left, moved = I.generators, s.to_left(), {}
    # the product b of a multiset of generators, by their sorted indices,
    # is built from the longest known prefix
    products = {(): SparsePoly.one(s.ring.vars)}

    def right_form(combo):
        """The right form of b*s, with the kernel memoised across products."""
        k = len(combo)
        while combo[:k] not in products:
            k -= 1
        b = products[combo[:k]]
        for j in range(k, len(combo)):
            b = products[combo[:j + 1]] = b * gens[combo[j]]
        out: dict = {}
        for alpha, phi in left.terms.items():
            _add_moved(out, s.ring, alpha, b * phi, -1, None, None, moved)
        return DiffOp._from_flat(s.ring, out, "right")

    for r in range(1, r_max + 1):
        if all(in_left_ideal_si(right_form(combo), I)
               for combo in combinations_with_replacement(range(len(gens)), r)):
            return r
    raise StarBoundNotFoundError(
        f"no exponent r <= {r_max} works; the theoretical bound is operator order + 1"
    )

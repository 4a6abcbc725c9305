"""Weyl algebras and single-variable differential polynomial rings.

Elements are kept in left normal form (polynomial coefficients to the left
of the operator monomials) or right normal form (coefficients to the
right); each abstract element has exactly one of each.  Products and
conversions all go through one closed formula, the Leibniz rule

    op^alpha * psi  =  sum_{beta <= alpha} C(alpha, beta) delta^(alpha-beta)(psi) op^beta
    psi * op^alpha  =  sum_{beta <= alpha} (-1)^|alpha-beta| C(alpha, beta) op^beta delta^(alpha-beta)(psi)

where delta_k is the partial derivative for a Weyl generator and the
attached derivation for the Ore variable.  The formula is exact because
the Weyl derivations commute and an Ore ring has a single operator.  The
acceptance battery checks it against the bare rewrite rule
op_k * a -> a * op_k + delta_k(a).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .groebner import Ideal, divide_exact
from .poly import GREVLEX, SparsePoly, TermOrder


class StarBoundNotFoundError(RuntimeError):
    """verify_star exhausted r_max without finding a working exponent."""


class OreRing:
    """Either the n-th Weyl algebra over Q[vars] (one d-symbol per variable)
    or Q[vars][X; delta] with a single skew variable X and derivation delta
    given on the ring variables and extended by the Leibniz rule."""

    def __init__(self, variables, kind: str = "weyl",
                 delta_on_vars: list[SparsePoly] | None = None,
                 op_names: list[str] | None = None):
        self.vars = tuple(variables)
        self.kind = kind
        if kind == "weyl":
            self.n_ops = len(self.vars)
            self.op_names = tuple(op_names) if op_names else tuple(
                f"d{i + 1}" for i in range(self.n_ops)
            )
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
        # Leibniz extension of the generator rule
        out = SparsePoly.zero(self.vars)
        for e, c in p.terms.items():
            for i, exp in enumerate(e):
                if exp == 0 or self.delta_on_vars[i].is_zero():
                    continue
                shifted = list(e)
                shifted[i] = exp - 1
                out = out + SparsePoly.monomial(self.vars, shifted, c * exp) * self.delta_on_vars[i]
        return out

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

    def as_polynomial(self) -> SparsePoly:
        """The element as a base-ring polynomial; requires operator order <= 0."""
        if self.op_order() > 0:
            raise ValueError("element has positive operator order")
        return self.terms.get(self.ring.zero_alpha(), SparsePoly.zero(self.ring.vars))

    def _check_ring(self, other: "DiffOp"):
        if self.ring != other.ring:
            raise ValueError("operators over different rings")

    # ---------- normal forms ----------

    def to_left(self) -> "DiffOp":
        """Left normal form of the same abstract element."""
        if self.form == "left":
            return self
        out: dict = {}
        for alpha, psi in self.terms.items():
            for beta, c in _leibniz(self.ring, alpha, psi, 1).items():
                _add_term(out, beta, c)
        return DiffOp(self.ring, out, "left")

    def to_right(self) -> "DiffOp":
        """Right normal form of the same abstract element."""
        if self.form == "right":
            return self
        out: dict = {}
        for alpha, phi in self.terms.items():
            for beta, c in _leibniz(self.ring, alpha, phi, -1).items():
                _add_term(out, beta, c)
        return DiffOp(self.ring, out, "right")

    # ---------- arithmetic ----------

    def __add__(self, other):
        if isinstance(other, SparsePoly):
            other = DiffOp.from_poly(self.ring, other)
        self._check_ring(other)
        a, b = self.to_left(), other.to_left()
        terms = dict(a.terms)
        for alpha, c in b.terms.items():
            _add_term(terms, alpha, c)
        return DiffOp(self.ring, terms, "left")

    def __neg__(self):
        return DiffOp(self.ring, {a: -c for a, c in self.terms.items()}, self.form)

    def __sub__(self, other):
        if isinstance(other, SparsePoly):
            other = DiffOp.from_poly(self.ring, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiffOp(self.ring, {a: c * other for a, c in self.terms.items()}, self.form)
        if isinstance(other, SparsePoly):
            other = DiffOp.from_poly(self.ring, other)
        self._check_ring(other)
        a, b = self.to_left(), other.to_left()
        out: dict = {}
        for alpha, phi in a.terms.items():
            for beta, psi in b.terms.items():
                # phi * op^alpha * psi * op^beta = sum phi * c * op^(gamma + beta)
                for gamma, c in _leibniz(self.ring, alpha, psi, 1).items():
                    _add_term(out, tuple(g + e for g, e in zip(gamma, beta)), phi * c)
        return DiffOp(self.ring, out, "left")

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, SparsePoly):
            return DiffOp.from_poly(self.ring, other) * self
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = DiffOp.one(self.ring)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            other = DiffOp.from_poly(self.ring, other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.ring != other.ring:
            return False
        a, b = self.to_left(), other.to_left()
        return a.terms == b.terms

    def __hash__(self):
        a = self.to_left()
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
            out = SparsePoly.zero(self.ring.vars)
            for alpha, phi in left.terms.items():
                v = m
                for k, p in enumerate(alpha):
                    for _ in range(p):
                        v = self.ring.delta(k, v)
                out = out + phi * v
            return out
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


def _leibniz(ring: OreRing, alpha: tuple, psi: SparsePoly, sign: int) -> dict:
    """The Leibniz expansion of op^alpha past psi, as {beta: coeff}.

    With sign +1 this is the left normal form of op^alpha * psi; with sign
    -1 it is the right normal form of psi * op^alpha.  One operator at a
    time, each coefficient c becomes sum_i C(a_k, i) sign^i delta_k^i(c)
    at beta_k = a_k - i, with the powers delta_k^i(c) built iteratively.
    """
    partial = {(): psi}
    for k, a in enumerate(alpha):
        nxt = {}
        for head, c in partial.items():
            for i in range(a + 1):
                if c.is_zero():
                    break
                nxt[head + (a - i,)] = c * (sign ** i * comb(a, i))
                c = ring.delta(k, c)
        partial = nxt
    return partial


class LocalizedFraction:
    """num / base^power over Q[vars]; the base is a fixed nonconstant poly.

    Canonicalization divides out whole base factors, cancels the monomial
    gcd when the denominator is a monomial, and cancels the full univariate
    gcd when everything lives in one variable (rebasing the denominator).
    General denominators are compared by cross-multiplication.
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
        if self.base == other.base:
            k = max(self.power, other.power)
            num = (self.num * self.base ** (k - self.power)
                   + other.num * other.base ** (k - other.power))
            return LocalizedFraction(num, self.base, k)
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


def _monomial_of(p: SparsePoly):
    if len(p.terms) != 1:
        return None
    return next(iter(p.terms.items()))


def _simplify_fraction(num: SparsePoly, base: SparsePoly, power: int):
    vars_ = num.vars
    if num.is_zero():
        return num, SparsePoly.one(vars_), 0
    if power == 0 or base.is_constant():
        if power > 0:
            num = num * (Fraction(1) / base.constant_value() ** power)
        return num, SparsePoly.one(vars_), 0
    # strip whole base factors
    while power > 0:
        q = divide_exact(num, base)
        if q is None:
            break
        num, power = q, power - 1
    if power == 0:
        return num, SparsePoly.one(vars_), 0
    mono = _monomial_of(base)
    if mono is not None:
        be, bc = mono
        denom_exp = tuple(x * power for x in be)
        content = tuple(min(e[i] for e in num.terms) for i in range(len(vars_)))
        cancel = tuple(min(c, d) for c, d in zip(content, denom_exp))
        if any(cancel):
            num = SparsePoly(vars_, {
                tuple(a - b for a, b in zip(e, cancel)): c for e, c in num.terms.items()
            })
            denom_exp = tuple(d - c for d, c in zip(denom_exp, cancel))
        num = num * (Fraction(1) / bc ** power)
        if not any(denom_exp):
            return num, SparsePoly.one(vars_), 0
        return num, SparsePoly.monomial(vars_, denom_exp), 1
    active = [i for i in range(len(vars_)) if base.degree_in(i) > 0]
    if len(active) == 1 and all(
        all(x == 0 for j, x in enumerate(e) if j != active[0]) for e in num.terms
    ):
        from . import univar

        i = active[0]
        dn = univar.from_sparse(num, i)
        dd = univar.from_sparse(base ** power, i)
        g = univar.gcd(dn, dd)
        if univar.deg(g) > 0:
            dn = univar.divmod_poly(dn, g)[0]
            dd = univar.divmod_poly(dd, g)[0]
        lead = dd[-1]
        dn = univar.scale(dn, 1 / lead)
        dd = univar.scale(dd, 1 / lead)
        num = univar.to_sparse(dn, vars_, i)
        new_base = univar.to_sparse(dd, vars_, i)
        if new_base == SparsePoly.one(vars_):
            return num, SparsePoly.one(vars_), 0
        return num, new_base, 1
    return num, base, power


# ---------- left-ideal membership and assumption (*) ----------

def in_left_ideal_si(t: DiffOp, I: Ideal) -> bool:
    """Membership of t in S*I: every right-normal-form coefficient lies in I.

    If t = sum s_j a_j with a_j in I, putting each s_j in right form and
    multiplying by a_j on the right keeps all right coefficients in I; the
    converse regroups sum op^alpha psi_alpha along generators of I.  This
    turns the noncommutative membership question into commutative Groebner
    membership.
    """
    right = t.to_right()
    return all(I.contains(psi) for psi in right.terms.values())


def verify_star(I: Ideal, s: DiffOp, r_max: int) -> int:
    """Least r <= r_max with I^r * s contained in S*I.

    Checked on all r-fold products of generators of I; for an operator of
    order m the answer is at most m + 1.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    gens = [g for g in I.generators if not g.is_zero()]
    if not gens:
        raise ValueError("(*) needs a nonzero ideal")
    for r in range(1, r_max + 1):
        ok = True
        for combo in combinations_with_replacement(gens, r):
            b = SparsePoly.one(s.ring.vars)
            for g in combo:
                b = b * g
            if not in_left_ideal_si(DiffOp.from_poly(s.ring, b) * s, I):
                ok = False
                break
        if ok:
            return r
    raise StarBoundNotFoundError(
        f"no exponent r <= {r_max} works; the theoretical bound is operator order + 1"
    )

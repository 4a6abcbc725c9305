"""Sparse multivariate polynomials over the rationals, with exact arithmetic.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per variable) to nonzero Fractions.  Zero coefficients are never
stored, so two equal polynomials have identical term maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class TermOrder:
    """A monomial order: graded reverse lex or lex, with a variable priority.

    ``priority`` is a permutation of variable indices; position 0 is the most
    significant variable.  The default priority is the natural one
    (first variable largest).
    """

    def __init__(self, kind: str = "grevlex", priority: tuple[int, ...] | None = None):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown term order kind {kind!r}")
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None

    def _perm(self, n: int) -> tuple[int, ...]:
        if self.priority is None:
            return tuple(range(n))
        if sorted(self.priority) != list(range(n)):
            raise ValueError("priority is not a permutation of the variables")
        return self.priority

    def key(self, exponents: tuple[int, ...]):
        """Sort key: larger key means larger monomial."""
        p = self._perm(len(exponents))
        if self.kind == "lex":
            return tuple(exponents[i] for i in p)
        # grevlex: total degree first, ties by smallest trailing exponent
        return (sum(exponents), tuple(-exponents[i] for i in reversed(p)))

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        if self.priority is None:
            return f"TermOrder({self.kind!r})"
        return f"TermOrder({self.kind!r}, priority={self.priority})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class SparsePoly:
    """An exact polynomial over Q in a fixed ordered list of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], object] | None = None):
        vs = tuple(variables)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                e = tuple(exps)
                if len(e) != len(vs):
                    raise ValueError(
                        f"exponent vector {e} has length {len(e)}, expected {len(vs)}"
                    )
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = _as_fraction(coeff)
                if c != 0:
                    acc = cleaned.get(e)
                    cleaned[e] = c if acc is None else acc + c
                    if cleaned[e] == 0:
                        del cleaned[e]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # ---------- constructors ----------

    @classmethod
    def zero(cls, variables) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "SparsePoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): c})

    @classmethod
    def one(cls, variables) -> "SparsePoly":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables, index: int) -> "SparsePoly":
        vs = tuple(variables)
        e = [0] * len(vs)
        e[index] = 1
        return cls(vs, {tuple(e): 1})

    @classmethod
    def monomial(cls, variables, exponents, c=1) -> "SparsePoly":
        return cls(variables, {tuple(exponents): c})

    # ---------- structure ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def coeff(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_term(self, order: TermOrder = GREVLEX) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def sorted_terms(self, order: TermOrder = GREVLEX) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def _check_same_ring(self, other: "SparsePoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    # ---------- arithmetic ----------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        self._check_same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            s = c if acc is None else acc + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return SparsePoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return SparsePoly.zero(self.vars)
            return SparsePoly(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check_same_ring(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SparsePoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---------- calculus ----------

    def partial(self, index: int) -> "SparsePoly":
        """Partial derivative with respect to the index-th variable."""
        if not (0 <= index < len(self.vars)):
            raise ValueError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            out[tuple(e2)] = c * k
        return SparsePoly(self.vars, out)

    def substitute(self, index: int, value: "SparsePoly") -> "SparsePoly":
        """Substitute a polynomial for one variable (value over the same ring)."""
        self._check_same_ring(value)
        out = SparsePoly.zero(self.vars)
        powers: dict[int, SparsePoly] = {0: SparsePoly.one(self.vars)}

        def power(k: int) -> SparsePoly:
            if k not in powers:
                powers[k] = power(k - 1) * value
            return powers[k]

        for e, c in self.terms.items():
            rest = list(e)
            k = rest[index]
            rest[index] = 0
            out = out + SparsePoly.monomial(self.vars, rest, c) * power(k)
        return out

    def extend(self, variables) -> "SparsePoly":
        """Embed into a larger ring; self.vars must be a subset of variables."""
        vs = tuple(variables)
        pos = []
        for v in self.vars:
            if v not in vs:
                raise ValueError(f"variable {v} missing from {vs}")
            pos.append(vs.index(v))
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(vs)
            for i, x in enumerate(e):
                e2[pos[i]] = x
            out[tuple(e2)] = c
        return SparsePoly(vs, out)

    # ---------- printing ----------

    def to_str(self, order: TermOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms(order):
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.vars[i])
                elif k > 1:
                    factors.append(f"{self.vars[i]}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.to_str()})"

    def __str__(self):
        return self.to_str()

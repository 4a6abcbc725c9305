"""Sparse multivariate polynomials over the rationals, with exact arithmetic.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per variable) to nonzero exact rationals, ints when integral and
Fractions otherwise (see SparsePoly).  Zero coefficients are never stored,
so two equal polynomials have identical term maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping


class TermOrder:
    """A monomial order given by its weight rows, most significant first.
    Each row is the variables whose exponents it sums, and monomials compare
    as their row sums do, lexicographically; the first variable is the most
    significant.  `rows(nvars)` is the constructor's rule, computed and
    checked once per number of variables: the rows name variables in range
    and their weight matrix (how often each row names each variable) has
    full rank, so no two monomials tie.  The orders are module values
    compared by identity: GREVLEX, LEX and the tag elimination of `groebner`."""

    __slots__ = ("name", "_rule", "_rows", "_keys")

    def __init__(self, name: str, rows: Callable[[int], list[tuple[int, ...]]]):
        self.name = name
        self._rule = rows
        self._rows: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._keys: dict[int, Callable[[tuple[int, ...]], tuple[int, ...]]] = {}

    def rows(self, nvars: int) -> tuple[tuple[int, ...], ...]:
        rows = self._rows.get(nvars)
        if rows is None:
            rows = tuple(self._rule(nvars))
            from . import linalg  # linalg builds on this module
            if not all(0 <= i < nvars for row in rows for i in row):
                raise ValueError(f"order {self.name!r} names a variable outside 0..{nvars - 1}")
            if linalg.rank([[row.count(i) for i in range(nvars)] for row in rows]) < nvars:
                raise ValueError(f"order {self.name!r} ties distinct monomials in {nvars} variables")
            self._rows[nvars] = rows
        return rows

    def key_for(self, nvars: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """Sort key of exponent tuples of length nvars, the flat int tuple of
        row sums (larger key, larger monomial): one expression per count,
        written once from the checked weight matrix, so from range(nvars)."""
        key = self._keys.get(nvars)
        if key is None:
            sums = ["+".join(f"e[{i}]" for i in range(nvars) for _ in range(row.count(i))) or "0"
                    for row in self.rows(nvars)]
            key = self._keys[nvars] = eval(f"lambda e: ({''.join(s + ', ' for s in sums)})", {})
        return key

    def __repr__(self):
        return f"TermOrder({self.name!r})"


# lex: the exponents one by one; grevlex: the partial degrees deg, deg minus
# the last exponent, and so on down to the first exponent alone
GREVLEX = TermOrder("grevlex", lambda n: [tuple(range(k)) for k in range(n, 0, -1)])
LEX = TermOrder("lex", lambda n: [(i,) for i in range(n)])


def _as_fraction(c) -> int | Fraction:
    """c as a stored coefficient: an int when integral (a bool as 0/1), else a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def exact_ratio(n: int, d: int) -> int | Fraction:
    """n / d as stored: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _is_operator(other) -> bool:
    from .ore import DiffOp  # ore builds on this module; DiffOp's reflected methods take a polynomial
    return isinstance(other, DiffOp)


def power_by_squaring(x, k: int):
    """x^k for k >= 1 by square-and-multiply in an associative ring: the
    first factor is taken as is, and x is squared only while bits remain."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return result


class SparsePoly:
    """An exact polynomial over Q in a fixed ordered list of variables.

    The constructor and the Groebner outputs store a coefficient as an int
    when integral and as a Fraction otherwise, and int op int stays int, so
    integer polynomials never pay Fraction's gcd per product.  (A Fraction
    sum or product may still be integral; it equals and hashes like the
    int.)  Only true division differs: int / int is a float, which the
    constructor and the arithmetic refuse with TypeError, so coefficients
    are divided as Fraction(a) / b."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], object] | None = None):
        vs = tuple(variables)
        cleaned: dict[tuple[int, ...], int | Fraction] = {}
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
                    cleaned[e] = c if acc is None else _as_fraction(acc + c)
                    if cleaned[e] == 0:
                        del cleaned[e]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _clean(cls, variables: tuple[str, ...], terms: dict) -> "SparsePoly":
        """A polynomial on a term dict that is already clean: exponent
        tuples of the right length with no negative entry, nonzero stored
        coefficients.  Internal callers that built such a dict use this to
        skip the checks of __init__, which public callers keep."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

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

    def constant_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

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

    def leading_term(self, order: TermOrder = GREVLEX) -> tuple[tuple[int, ...], int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key_for(len(self.vars)))
        return e, self.terms[e]

    def sorted_terms(self, order: TermOrder = GREVLEX) -> list[tuple[tuple[int, ...], int | Fraction]]:
        key = order.key_for(len(self.vars))
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def _check_same_ring(self, other: "SparsePoly"):
        if not isinstance(other, SparsePoly):
            raise TypeError(f"coefficient must be int or Fraction, got {type(other).__name__}")
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    # ---------- arithmetic ----------

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, (int, Fraction)) and _is_operator(other):
                return NotImplemented
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
        return SparsePoly._clean(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, (int, Fraction)) and _is_operator(other):
                return NotImplemented
            other = SparsePoly.constant(self.vars, other)
        self._check_same_ring(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, (int, Fraction)) and _is_operator(other):
                return NotImplemented
            c = _as_fraction(other)
            if c == 0:
                return SparsePoly.zero(self.vars)
            return SparsePoly._clean(self.vars, {e: c * v for e, v in self.terms.items()})
        self._check_same_ring(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                s = c1 * c2 if acc is None else acc + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly._clean(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return SparsePoly.one(self.vars) if k == 0 else power_by_squaring(self, k)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.vars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if len(self.terms) > 1 or any(map(any, self.terms)):
            return hash((self.vars, frozenset(self.terms.items())))
        # a constant equals its int or Fraction value, so it hashes as that
        return hash(self.constant_value())

    # ---------- calculus ----------

    def partial(self, index: int) -> "SparsePoly":
        """Partial derivative with respect to the index-th variable."""
        if not (0 <= index < len(self.vars)):
            raise ValueError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            out[tuple(e2)] = c * k
        return SparsePoly._clean(self.vars, out)

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

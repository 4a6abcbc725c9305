"""Dense univariate polynomial helpers over Q.

A polynomial is a list of exact rationals (an int when integral, as in
`linalg`) indexed by degree with no trailing zeros; [] is the zero
polynomial.  These routines back minimal-polynomial work and the
idempotent splitting: Euclidean arithmetic, CRT idempotents, Yun
squarefree decomposition, and complete factorization over Q by
Zassenhaus's method (factor modulo a small prime, Hensel-lift, recombine).

`mul`, `monic`, `divmod_poly`, `gcd` and `xgcd` (so also `lcm`,
`squarefree_decomposition` and `crt_idempotents`) compute on integer
polynomials, by fraction-free pseudo-division and dividing out contents,
and return the same values as over Q.  The factorization uses finite
fields internally only, replays (its one random choice is seeded), and
refuses (RecombinationBudgetError) to try more than RECOMBINATION_SUBSETS
subsets in recombination.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .linalg import fraction_vector, integer_vector
from .poly import SparsePoly

Dense = list  # list[int | Fraction]

RECOMBINATION_SUBSETS = 4096


class RecombinationBudgetError(ValueError):
    """Recombination needs more than RECOMBINATION_SUBSETS subsets."""


def trim(c: Dense) -> Dense:
    while c and c[-1] == 0:
        c.pop()
    return c


def deg(c: Dense) -> int:
    return len(c) - 1


def mul(a: Dense, b: Dense) -> Dense:
    (na, da), (nb, db) = integer_vector(a), integer_vector(b)
    return fraction_vector(_imul(na, nb), da * db)


def scale(a: Dense, c) -> Dense:
    c = Fraction(c)
    if c == 0:
        return []
    return [x * c for x in a]


def _pseudo_divmod(a: list, b: list) -> tuple[int, list, list]:
    """(s, q, r) with s * a = q * b + r and deg r < deg b, for integer
    polynomials a and b != 0: each quotient term cancels the lead of r by
    cross-multiplication with g = gcd(lc(b), lc(r))."""
    r, s = list(a), 1
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    while len(r) > db:
        g = math.gcd(lb, r[-1])
        x, y = lb // g, r[-1] // g
        if x != 1:
            r, q, s = [x * c for c in r], [x * c for c in q], s * x
        k = len(r) - 1 - db
        q[k] = y
        for i, c in enumerate(b):
            r[i + k] -= y * c
        trim(r)
    return s, trim(q), r


def divmod_poly(a: Dense, b: Dense) -> tuple[Dense, Dense]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    (na, da), (nb, db) = integer_vector(a), integer_vector(b)
    # s na = q nb + r, so a = b (q db / (s da)) + r / (s da)
    s, q, r = _pseudo_divmod(na, nb)
    return fraction_vector([c * db for c in q], s * da), fraction_vector(r, s * da)


def monic(a: Dense) -> Dense:
    nums = integer_vector(a)[0]
    return fraction_vector(nums, nums[-1]) if nums else []


def gcd(a: Dense, b: Dense) -> Dense:
    """The monic gcd, by Euclid on primitive integer polynomials."""
    a, b = _primitive(integer_vector(a)[0]), _primitive(integer_vector(b)[0])
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    return fraction_vector(a, a[-1]) if a else []


def lcm(a: Dense, b: Dense) -> Dense:
    if not a or not b:
        return []
    g = gcd(a, b)
    return monic(divmod_poly(mul(a, b), g)[0])


def derivative(a: Dense) -> Dense:
    return trim([a[i] * i for i in range(1, len(a))])


def squarefree_decomposition(a: Dense) -> list[tuple[Dense, int]]:
    """Yun's algorithm: return [(q_i, i)] with a = lead * prod q_i^i,
    the q_i monic, squarefree, and pairwise coprime."""
    a = monic(a)
    if deg(a) <= 0:
        return []
    out = []
    g = gcd(a, derivative(a))
    w = divmod_poly(a, g)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(w, g)
        factor = divmod_poly(w, y)[0]
        if deg(factor) > 0:
            out.append((monic(factor), i))
        w = y
        g = divmod_poly(g, y)[0]
        i += 1
    return out


def xgcd(a: Dense, b: Dense) -> tuple[Dense, Dense, Dense]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g monic (or zero).  Euclid
    runs on the integer polynomials da*a and db*b, and s0*da*a + t0*db*b = r0
    holds throughout."""
    (r0, da), (r1, db) = integer_vector(a), integer_vector(b)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        k, q, r = _pseudo_divmod(r0, r1)
        s = _isub([k * c for c in s0], _imul(q, s1))
        t = _isub([k * c for c in t0], _imul(q, t1))
        g = math.gcd(*r, *s, *t)
        r0, r1 = r1, [c // g for c in r]
        s0, s1 = s1, [c // g for c in s]
        t0, t1 = t1, [c // g for c in t]
    lead = r0[-1] if r0 else 1
    return (fraction_vector(r0, lead), fraction_vector([c * da for c in s0], lead),
            fraction_vector([c * db for c in t0], lead))


def crt_idempotents(moduli: list[Dense]) -> list[Dense]:
    """For pairwise coprime P_1..P_r with product P, the e_i of degree
    < deg P with e_i = 1 mod P_i and e_i = 0 mod P_j for j != i."""
    total = functools.reduce(mul, moduli, [1])
    out = []
    for p in moduli:
        rest = divmod_poly(total, p)[0]
        # t = rest^-1 mod p, so t*rest = 1 mod p; deg t < deg p
        _, _, t = xgcd(p, divmod_poly(rest, p)[1])
        out.append(mul(t, rest))
    return out


# ---------- complete factorization over Q ----------
#
# Zassenhaus: a squarefree primitive integer polynomial f is factored modulo
# a small prime p (distinct-degree, then Cantor-Zassenhaus equal-degree
# splitting), the factors are Hensel-lifted modulo p^k past twice the
# Mignotte bound, and true factors are recombined from subsets of the lifted
# ones by trial division, smallest subsets first.  Polynomials in this
# section are lists of ints, lowest degree first, with no trailing zeros.

def _imod(a: list, m: int) -> list:
    return trim([c % m for c in a])


def _iadd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def _isub(a: list, b: list) -> list:
    return _iadd(a, [-c for c in b])


def _imul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def _idivmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder modulo m; lc(b) must be a unit mod m."""
    inv = pow(b[-1], -1, m)
    r = _imod(a, m)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        k = len(r) - 1 - db
        c = r[-1] * inv % m
        q[k] = c
        for i, y in enumerate(b):
            r[i + k] = (r[i + k] - c * y) % m
        trim(r)
    return trim(q), r


def _imonic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _igcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _idivmod(a, b, p)[1]
    return _imonic(a, p)


def _ixgcd(a: list, b: list, p: int) -> tuple[list, list]:
    """s, t with s*a + t*b = 1 mod p, deg s < deg b, deg t < deg a, for
    a, b coprime mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _idivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _imod(_isub(s0, _imul(q, s1)), p)
        t0, t1 = t1, _imod(_isub(t0, _imul(q, t1)), p)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return _imod([c * inv for c in s0], p), _imod([c * inv for c in t0], p)


def _ipowmod(a: list, e: int, f: list, p: int) -> list:
    """a^e mod (f, p), f monic."""
    out, a = [1], _idivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _idivmod(_imul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _idivmod(_imul(a, a), f, p)[1]
    return out


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """(g, d) with g the product of the irreducible factors of degree d of
    the monic squarefree f mod p."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ipowmod(h, p, f, p)
        g = _igcd(f, _imod(_isub(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _idivmod(f, g, p)[0]
            h = _idivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list, d: int, p: int, rng: random.Random) -> list[list]:
    """Cantor-Zassenhaus: the monic irreducible factors, all of degree d,
    of the monic squarefree g mod the odd prime p."""
    n = len(g) - 1
    if n == d:
        return [g]
    half = (p ** d - 1) // 2
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        w = _igcd(g, _imod(_isub(_ipowmod(a, half, g, p), [1]), p), p)
        if 1 < len(w) < len(g):
            return (_equal_degree(w, d, p, rng)
                    + _equal_degree(_idivmod(g, w, p)[0], d, p, rng))


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step (von zur Gathen-Gerhard, Alg. 15.10):
    from f = g*h and s*g + t*h = 1 mod m, h monic, the same mod m^2."""
    mm = m * m
    e = _imod(_isub(f, _imul(g, h)), mm)
    q, r = _idivmod(_imul(s, e), h, mm)
    g = _imod(_iadd(g, _iadd(_imul(t, e), _imul(q, g))), mm)
    h = _imod(_iadd(h, r), mm)
    b = _imod(_isub(_iadd(_imul(s, g), _imul(t, h)), [1]), mm)
    c, d = _idivmod(_imul(s, b), h, mm)
    s = _imod(_isub(s, d), mm)
    t = _imod(_isub(t, _iadd(_imul(t, b), _imul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: list, factors: list[list], p: int, pk: int) -> list[list]:
    """Monic u_i with f = lc(f) * prod u_i mod pk, from the monic pairwise
    coprime factors of f mod p (pk a power of p), by a balanced factor tree."""
    if len(factors) == 1:
        return [_imonic(_imod(f, pk), pk)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _imod(_imul(g, u), p)
    h = [1]
    for u in factors[half:]:
        h = _imod(_imul(h, u), p)
    s, t = _ixgcd(g, h, p)
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(_imod(g, pk), factors[:half], p, pk)
            + _hensel_lift(_imod(h, pk), factors[half:], p, pk))


def _symmetric(a: list, m: int) -> list:
    return [c - m if 2 * c > m else c for c in a]


def _primitive(a: list) -> list:
    """a over the gcd of its coefficients, with positive lead; [] stays []."""
    g = math.gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _exact_quotient(f: list, g: list) -> list | None:
    """f / g over Z, or None if g does not divide f."""
    if (f[0] % g[0]) if g[0] else f[0]:
        return None  # g(0) does not divide f(0)
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * max(len(f) - dg, 0)
    while len(r) > dg:
        c, rem = divmod(r[-1], lg)
        if rem:
            return None
        k = len(r) - 1 - dg
        q[k] = c
        for i, y in enumerate(g):
            r[i + k] -= c * y
        trim(r)
    return trim(q) if not r else None


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _zassenhaus(f: list) -> list[list]:
    """Irreducible factors over Z of a primitive squarefree f of degree >= 2
    with positive leading coefficient."""
    b = f[-1]
    df = trim([c * i for i, c in enumerate(f)][1:])
    for p in _odd_primes():
        if b % p and len(_igcd(_imod(f, p), _imod(df, p), p)) == 1:
            break
    rng = random.Random(0)
    modp = []
    for g, d in _distinct_degree(_imonic(_imod(f, p), p), p):
        modp += _equal_degree(g, d, p, rng)
    if len(modp) == 1:
        return [f]
    n = len(f) - 1
    bound = 2 * (math.isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * b
    pk = p
    while pk <= bound:
        pk *= p
    lifted = _hensel_lift(f, sorted(modp), p, pk)
    found, size, tried = [], 1, 0
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            tried += 1
            if tried > RECOMBINATION_SUBSETS:
                raise RecombinationBudgetError(
                    f"factoring a polynomial of degree {n} with {len(modp)} factors modulo {p} "
                    f"needs more than {RECOMBINATION_SUBSETS} recombination subsets")
            g = [b]
            for i in subset:
                g = _imod(_imul(g, lifted[i]), pk)
            g = _primitive(_symmetric(g, pk))
            q = _exact_quotient(f, g)
            if q is not None:
                found.append(g)
                f, b = q, q[-1]
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def irreducible_factors(a: Dense) -> list[Dense]:
    """Monic irreducible factors over Q of a squarefree a of degree >= 1,
    sorted by degree, then by coefficients."""
    a = monic(a)
    if deg(a) <= 1:
        return [a]
    ints = _primitive(integer_vector(a)[0])
    return sorted(
        (monic(g) for g in _zassenhaus(ints)),
        key=lambda q: (len(q), q),
    )


def coprime_factorization(a: Dense) -> list[tuple[Dense, int]]:
    """Factor a into its monic irreducible factors q with multiplicities m:
    a = lead * prod q^m.  Yun's multiplicity order, then irreducible_factors
    order within one multiplicity."""
    return [(q, m) for s, m in squarefree_decomposition(a) for q in irreducible_factors(s)]


def rational_roots(a: Dense) -> list[Fraction]:
    """Distinct rational roots of a (a nonzero): the roots of its linear
    factors, ordered by |numerator|, then denominator, positive first."""
    if not a:
        raise ValueError("zero polynomial")
    roots = [-q[0] for q, _ in coprime_factorization(a) if deg(q) == 1]
    return sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0))


# ---------- conversion to SparsePoly ----------

def to_sparse(c: Dense, variables, index: int = 0) -> SparsePoly:
    vs = tuple(variables)
    terms = {}
    for k, coeff in enumerate(c):
        if coeff != 0:
            e = [0] * len(vs)
            e[index] = k
            terms[tuple(e)] = coeff
    return SparsePoly(vs, terms)

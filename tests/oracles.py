"""The trial-division factorizer and the kernel-power splitting that
`univar.coprime_factorization` and `artin._try_split` replaced, kept as
test oracles.

`old_coprime_factorization` tries every divisor pair of the extreme
coefficients for rational roots and splits quadratics and quartics by
radicals; squarefree remainders of degree >= 5 without a rational root are
kept whole.  `old_decompose_local` splits a factor by stable kernels of
q(m) for the coprime parts q of the quotient minimal polynomial, and
accepts a factor as local after three full-degree candidates above
degree 4.  Both are exact and slow; on inputs they answer correctly the
production code must give identical results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from weylcas import linalg
from weylcas.artin import LocalFactor, _assert_idempotent_system
from weylcas.poly import SparsePoly
from weylcas.univar import deg, divmod_poly, eval_at, monic, mul, squarefree_decomposition, trim


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def old_rational_roots(a: list) -> list[Fraction]:
    """Distinct rational roots of a (a nonzero)."""
    if not a:
        raise ValueError("zero polynomial")
    roots = []
    # strip powers of x
    k = 0
    while k < len(a) and a[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
        a = a[k:]
    if deg(a) <= 0:
        return roots
    # clear denominators
    denom_lcm = 1
    for c in a:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in a]
    a0, an = ints[0], ints[-1]
    for p in _int_divisors(a0):
        for q in _int_divisors(an):
            for sgn in (1, -1):
                cand = Fraction(sgn * p, q)
                if cand not in roots and eval_at(a, cand) == 0:
                    roots.append(cand)
    return roots


def _sqrt_fraction(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def split_quadratic(a: list) -> list[list] | None:
    """Split a monic quadratic into two monic linears, or None if irreducible."""
    if deg(a) != 2:
        raise ValueError("not a quadratic")
    a = monic(a)
    p, q = a[1], a[0]
    disc = p * p - 4 * q
    r = _sqrt_fraction(disc)
    if r is None:
        return None
    x1 = (-p + r) / 2
    x2 = (-p - r) / 2
    return [[-x1, Fraction(1)], [-x2, Fraction(1)]]


def split_quartic(a: list) -> list[list] | None:
    """Split a monic quartic with no rational root into two monic quadratics
    via the resolvent cubic, or None if no rational split exists."""
    if deg(a) != 4:
        raise ValueError("not a quartic")
    a = monic(a)
    s, r, q, p = a[0], a[1], a[2], a[3]
    # resolvent cubic for x^4 + p x^3 + q x^2 + r x + s, roots u = b + d
    resolvent = trim([
        -(p * p * s - 4 * q * s + r * r),
        p * r - 4 * s,
        -q,
        Fraction(1),
    ])
    for u in old_rational_roots(resolvent):
        # b + d = u, b*d = s, a1 + c1 = p, a1*c1 = q - u, a1*d + b*c1 = r
        # solve a1, c1 from t^2 - p t + (q - u) = 0
        disc = p * p - 4 * (q - u)
        root = _sqrt_fraction(disc)
        if root is None:
            continue
        for a1 in ((p + root) / 2, (p - root) / 2):
            c1 = p - a1
            # b + d = u and a1*d + b*c1 = r
            if a1 != c1:
                d_val = (r - u * c1) / (a1 - c1)
                b_val = u - d_val
            else:
                bd = _sqrt_fraction(u * u - 4 * s)
                if bd is None:
                    continue
                b_val = (u + bd) / 2
                d_val = (u - bd) / 2
            f1 = [b_val, a1, Fraction(1)]
            f2 = [d_val, c1, Fraction(1)]
            if mul(f1, f2) == a:
                return [trim(f1), trim(f2)]
    return None


def _split_squarefree(a: list) -> list[list]:
    """Split a monic squarefree polynomial into coprime monic factors,
    irreducible whenever the degree-by-degree strategies apply."""
    a = monic(a)
    if deg(a) <= 1:
        return [a]
    factors = []
    rest = a
    for root in old_rational_roots(a):
        lin = [-root, Fraction(1)]
        factors.append(lin)
        rest = divmod_poly(rest, lin)[0]
    d = deg(rest)
    if d <= 1:
        if d == 1:
            factors.append(monic(rest))
        return factors
    if d == 2:
        split = split_quadratic(rest)
        factors.extend(split if split else [rest])
        return factors
    if d == 3:
        # a cubic with no rational root is irreducible over Q
        factors.append(rest)
        return factors
    if d == 4:
        split = split_quartic(rest)
        if split:
            for f in split:
                sub_split = split_quadratic(f)
                factors.extend(sub_split if sub_split else [f])
        else:
            factors.append(rest)
        return factors
    # degree >= 5 with no linear factor: keep whole
    factors.append(rest)
    return factors


def old_coprime_factorization(a: list) -> list[tuple[list, int]]:
    """Factor a into pairwise coprime monic prime powers (q, m), complete
    up to the degree->=5 limitation noted in the module docstring."""
    out = []
    for q, m in squarefree_decomposition(a):
        for piece in _split_squarefree(q):
            out.append((piece, m))
    return out


def old_decompose_local(algebra, seed: int = 0, extra_trials: int = 10) -> list[LocalFactor]:
    """Orthogonal idempotent decomposition by kernel powers; the factors are
    local wherever old_coprime_factorization is complete."""
    if algebra.dim == 0:
        return []
    finished: list[LocalFactor] = []
    work = [LocalFactor(algebra,
                        [linalg.unit_vector(algebra.dim, i) for i in range(algebra.dim)],
                        algebra.one())]
    while work:
        factor = work.pop()
        split = _try_split(algebra, factor, seed, extra_trials)
        if split is None:
            finished.append(factor)
        else:
            work.extend(LocalFactor(algebra, b, e) for b, e in split)

    finished.sort(key=lambda f: (-f.dim, [str(c) for c in f.idempotent]))
    _assert_idempotent_system(algebra, finished)
    return finished


def _candidate_elements(algebra, seed: int, extra: int):
    """Variable images first, then seeded random small combinations."""
    gens = [algebra.to_vector(SparsePoly.variable(algebra.vars, i))
            for i in range(len(algebra.vars))]
    for g in gens:
        yield g
    rng = random.Random(seed)
    for _ in range(extra):
        v = [Fraction(0)] * algebra.dim
        for g in gens:
            c = rng.randint(-3, 3)
            v = [a + c * b for a, b in zip(v, g)]
        yield v


def _quotient_projection(rad_vectors: list, dim: int):
    """Projection data for V -> V/span(rad): echelonized radical rows plus
    the complement coordinates that survive."""
    ech, pivots = linalg.rref(rad_vectors) if rad_vectors else ([], [])
    complement = [i for i in range(dim) if i not in pivots]

    def project(v):
        v = v[:]
        for row, p in zip(ech, pivots):
            c = v[p]
            if c != 0:
                for i in range(dim):
                    v[i] -= c * row[i]
        return [v[i] for i in complement]

    return project, complement


def _try_split(algebra, factor: LocalFactor, seed, extra_trials):
    k = factor.dim
    if k == 1:
        return None
    rad = factor.radical_basis_factor()
    r = k - len(rad)
    if r == 1:
        return None  # residue field Q: already local
    project, complement = _quotient_projection(rad, k)
    one_factor = factor.to_factor_coords(factor.idempotent)
    mult_idem = algebra.mult_matrix(factor.idempotent)
    stubborn_full_degree = 0
    for cand in _candidate_elements(algebra, seed, extra_trials):
        local_elt = linalg.mat_vec(mult_idem, cand)
        m = factor.restrict(algebra.mult_matrix(local_elt))
        # the induced action on the (etale) quotient has squarefree min poly
        m_ss = linalg.from_columns(
            [project([m[rr][c] for rr in range(k)]) for c in complement]
        )
        minpoly_ss = linalg.minimal_polynomial(m_ss)
        parts = old_coprime_factorization(minpoly_ss)
        if len(parts) < 2:
            if deg(minpoly_ss) == r:
                if r <= 4:
                    # the quotient is Q[t]/(irreducible) of full degree: a field
                    return None
                # monogenic but beyond the certified factorization range;
                # a few more generic elements, then accept as unsplittable
                stubborn_full_degree += 1
                if stubborn_full_degree >= 3:
                    return None
            continue
        # stable kernels of each coprime block give the ideal decomposition
        power = 1
        while (1 << power) < k:
            power += 1
        blocks = []
        for q, _ in parts:
            n_mat = linalg.poly_of_matrix(q, m)
            for _ in range(power):
                n_mat = linalg.mat_mul(n_mat, n_mat)
            blocks.append(linalg.nullspace(n_mat))
        if sum(len(b) for b in blocks) != k:
            raise RuntimeError("kernel-power split lost dimensions")
        # idempotents: the block components of the factor identity
        all_cols = [v for b in blocks for v in b]
        coords = linalg.ColumnSolver(all_cols).solve(one_factor)
        if coords is None:
            raise RuntimeError("identity not in the span of the split blocks")
        pieces = []
        offset = 0
        for b in blocks:
            e_factor = [Fraction(0)] * k
            for j, v in enumerate(b):
                c = coords[offset + j]
                if c != 0:
                    for i in range(k):
                        e_factor[i] += c * v[i]
            offset += len(b)
            pieces.append((
                [factor.to_ambient(v) for v in b],
                factor.to_ambient(e_factor),
            ))
        return pieces
    return None



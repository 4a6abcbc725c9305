"""Code that faster or simpler production paths replaced, kept as test
oracles.

`old_coprime_factorization` tries every divisor pair of the extreme
coefficients for rational roots and splits quadratics and quartics by
radicals; squarefree remainders of degree >= 5 without a rational root are
kept whole.  `old_decompose_local` splits a factor by stable kernels of
q(m) for the coprime parts q of the quotient minimal polynomial, and
accepts a factor as local after three full-degree candidates above
degree 4; it works in factor coordinates, through `factor_coords` (the
coordinates of an ambient vector over the factor basis, through a
`Subspace`) and `factor_radical` (the factor's radical, as the kernel of
the ambient radical against the factor basis), before `decompose_local`
split each factor eA in ambient coordinates.  `PerDegreeCech`,
`PerDegreeMV` and the `old_mv_*`/`old_gamma_*` functions are the local
cohomology code that rebuilt every complex at each multidegree, on all
subsets of the generators, before `localcoh` built one
face complex per sign pattern (`minimalize_monomials` trims the generators
of I + J and of I cap J that they build);
`OldCohPiece` and `old_induced_map` give cohomology classes in the
coordinates of a left nullspace of the boundary and invert a re-lifted
basis, before `CohPiece` read classes off one `Subspace`.  The
`old_*` span helpers, `OldColumnSolver` and `KrylovReducer` answered span
questions one fresh row reduction at a time, before `linalg.Subspace`.
`old_simplify_fraction` cancels the monomial gcd of a fraction over a
monomial and reduces a univariate fraction by its gcd with base^power
(through `from_sparse`, its dense coefficients), rebased into one
polynomial with power 1, before `ore` kept one presentation per base: the
base monic and the power least; `old_diffop_power` multiplies
k times, before square-and-multiply.  `old_rref` eliminates over
`Fraction`s, and `old_rank`, `old_nullspace` and `old_solve` read their
answers off it, before `linalg` eliminated on integer rows; `old_mat_mul`
and `old_mat_vec` multiply and add `Fraction`s, before `linalg` multiplied
integer rows.  `old_structure_table` Groebner-reduces every product of two
standard monomials, and `old_mult`, `old_mult_matrix`, `old_basis_traces`
and `old_radical_basis` compute over that `Fraction` table, before
`ArtinAlgebra` built one integer tensor from the variable matrices.
`OldSubspace` keeps Fraction rows in reduced row echelon form and Fraction
combinations; `old_action_of_vector` sums Fraction monomial actions;
`old_poly_apply` runs Horner on Fraction vectors; `old_divmod_poly`,
`old_gcd`, `old_xgcd`, `old_squarefree_decomposition` and
`old_crt_idempotents` run Euclid over Fractions, before `linalg` and
`univar` kept these on integers.  `old_reduce`, `old_reduce_poly`,
`old_divide_exact` and `old_buchberger` are the Groebner reduction kernel
on exponent tuples, before `groebner` packed each monomial into one int.
`old_poly_add`, `old_poly_mul` and `old_partial` are `SparsePoly`'s loops
on term maps coerced to `Fraction`, before integral coefficients stayed
Python ints; `old_mul` and `old_monic` are `univar`'s loops on Fractions,
before `univar` multiplied integer polynomials.  `exact_rule` checks the
stored form both `SparsePoly` and `linalg` keep: an int when integral, else
a Fraction.
`old_saturation` iterates `quotient_by_ideal` until two iterates are
`same_ideal` (mutual inclusion, `ideal_includes`), before `groebner`
saturated by one tag-variable elimination per generator.
`old_parse_operator` and `old_parse_polynomial` are the two-pass parser:
a tree of `Num`/`Var`/`Neg`/`BinOp`/`Pow` nodes, then an evaluation in
which every leaf is a `DiffOp` (a plain polynomial too, over a Weyl ring),
before `parser` evaluated while parsing.
`old_level_one_window` expands each Koszul entry through
`old_model_mult_matrix`, one dense block per entry and degree, and
assembles the blocks with `block_matrix` before ranking them, as
`koszul` did before it wrote each differential straight from the model's
position maps.  `block_matrix` was `linalg`'s until its last library
caller, the hull's block diagonal, placed its scaled blocks itself.
`old_leibniz` expands op^alpha past a whole coefficient polynomial, and
`old_diffop_mul`, `old_to_left`, `old_to_right`, `old_apply` and
`old_verify_star` are the Weyl and Ore arithmetic built on it, before
`ore` moved op^alpha past one monomial at a time into a flat term map.
`socle_matches_primary_annihilator` checks (0 :_E nu) = (0 :_E Q_1) in a
truncated hull; only the tests call it.
`var_matrices`, `mult_matrix`, `var_actions`, `nu_matrix` and
`subspace_coords` read the library's scaled matrices and coordinate pairs
as Fraction values, as the library once stored them;
`old_submodule_closure` grows a submodule with those Fraction actions and
an `OldSubspace`, before `ArtinModule` held its actions scaled only.
All are exact
and slow; on inputs they answer correctly the production code must give
identical results (fractions: the same value, compared by
cross-multiplication).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from operator import add, le, sub

from weylcas import artin, linalg, univar
from weylcas.artin import LocalFactor, decompose_local
from weylcas.groebner import Ideal, divide_exact, quotient_by_ideal
from weylcas.hulls import (
    CurveExtension,
    TruncatedHull,
    matched_local_factor,
    maximal_ideal_stabilization_index,
)
from weylcas.koszul import koszul_matrix
from weylcas.localcoh import monomial_lcm, window_degrees
from weylcas.ore import DiffOp, OreRing, StarBoundNotFoundError
from weylcas.parser import ParseError, Token, tokenize
from weylcas.poly import SparsePoly
from weylcas.univar import deg, divmod_poly, squarefree_decomposition, trim


def block_matrix(blocks: list, row_dims: list[int], col_dims: list[int]) -> list:
    """The matrix with blocks[i][j] at block row i and block column j.

    None stands for a zero block.  Every other block must be
    row_dims[i] x col_dims[j]; a block with no rows is [] whatever its width.
    A grid or block of the wrong shape raises ValueError.
    """
    out = linalg.zeros(sum(row_dims), sum(col_dims))
    r0 = 0
    for block_row, rows in zip(blocks, row_dims, strict=True):
        c0 = 0
        for b, cols in zip(block_row, col_dims, strict=True):
            if b is not None:
                if len(b) != rows:
                    raise ValueError(f"block with {len(b)} rows, expected {rows}x{cols}")
                for i, row in enumerate(b, r0):
                    if len(row) != cols:
                        raise ValueError(f"block row of length {len(row)}, expected {rows}x{cols}")
                    out[i][c0:c0 + cols] = row
            c0 += cols
        r0 += rows
    return out


def exact_rule(values) -> bool:
    """Every entry, at any depth of nested lists, is stored as an exact
    rational: an int, or a Fraction that is not integral."""
    return all(exact_rule(x) if isinstance(x, list)
               else type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in values)


# ---------- Fraction views of the scaled form ----------

def var_matrices(algebra) -> list:
    """The multiplication matrices of an ArtinAlgebra's variables."""
    return [linalg.fraction_matrix(m, d) for m, d in algebra._vars]


def mult_matrix(algebra, v) -> list:
    """The multiplication matrix of the algebra element with coordinates v."""
    return linalg.fraction_matrix(*algebra._multiplications.combine(v))


def var_actions(module) -> list:
    """The actions of an ArtinModule's variables."""
    return [linalg.fraction_matrix(m, d) for m, d in module._actions]


def nu_matrix(hull) -> list:
    """The action of nu on a TruncatedHull."""
    return linalg.fraction_matrix(*hull.nu_action)


def subspace_coords(span, v) -> list | None:
    """The coordinates of v over span.basis as exact values, or None."""
    coords = span.coords(v)
    return None if coords is None else linalg.fraction_vector(*coords)


def old_submodule_closure(module, vectors) -> list:
    """The vectors `submodule_closure` accepts, found with the Fraction
    actions and an `OldSubspace`."""
    span = OldSubspace(module.dim)
    frontier = [v for v in vectors if span.add(v)]
    actions = var_actions(module)
    while frontier:
        images = [old_mat_vec(m, v) for m in actions for v in frontier]
        frontier = [w for w in images if span.add(w)]
    return span.basis


def eval_at(a: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


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
    a = old_monic(a)
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
    a = old_monic(a)
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
            if old_mul(f1, f2) == a:
                return [trim(f1), trim(f2)]
    return None


def _split_squarefree(a: list) -> list[list]:
    """Split a monic squarefree polynomial into coprime monic factors,
    irreducible whenever the degree-by-degree strategies apply."""
    a = old_monic(a)
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
            factors.append(old_monic(rest))
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
    pairwise_idempotent_check(algebra, finished)
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


def _to_ambient(factor: LocalFactor, factor_vector: list) -> list:
    """Ambient coordinates of a vector given in factor coordinates."""
    out = [Fraction(0)] * len(factor.idempotent)
    for c, b in zip(factor_vector, factor.basis_vectors, strict=True):
        if c != 0:
            for i, x in enumerate(b):
                out[i] += c * x
    return out


def factor_coords(factor: LocalFactor, ambient_vector: list) -> list:
    """Coordinates of an ambient vector over factor.basis_vectors, through
    a Subspace; a vector outside the factor raises ValueError."""
    c = subspace_coords(linalg.Subspace(factor.algebra.dim, factor.basis_vectors), ambient_vector)
    if c is None:
        raise ValueError("vector outside the factor")
    return c


def factor_radical(factor: LocalFactor) -> list:
    """Radical of the factor in factor coordinates: for an ideal direct
    summand, its intersection with the ambient radical, read off the
    kernel of [Rad | -B]."""
    ambient_rad = factor.algebra.radical_basis()
    if factor.dim == 0 or not ambient_rad:
        return []
    stacked = linalg.transpose(ambient_rad + [[-c for c in b] for b in factor.basis_vectors])
    return [v[len(ambient_rad):] for v in linalg.nullspace(stacked)]


def _try_split(algebra, factor: LocalFactor, seed, extra_trials):
    k = factor.dim
    if k == 1:
        return None
    rad = factor_radical(factor)
    r = k - len(rad)
    if r == 1:
        return None  # residue field Q: already local
    project, complement = _quotient_projection(rad, k)
    one_factor = factor_coords(factor, factor.idempotent)
    mult_idem = mult_matrix(algebra, factor.idempotent)
    stubborn_full_degree = 0
    for cand in _candidate_elements(algebra, seed, extra_trials):
        local_elt = linalg.mat_vec(mult_idem, cand)
        m = linalg.fraction_matrix(*factor.restrict(mult_matrix(algebra, local_elt)))
        # the induced action on the (etale) quotient has squarefree min poly
        m_ss = linalg.transpose(
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
        coords = OldColumnSolver(all_cols).solve(one_factor)
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
                [_to_ambient(factor, v) for v in b],
                _to_ambient(factor, e_factor),
            ))
        return pieces
    return None




# ---------- Artinian decompositions that re-derive every factor ----------

def reduced_variable_columns(algebra):
    """The columns of the variable multiplication matrices over one common
    denominator, as `ArtinAlgebra._variable_columns` gives them, with one
    `Ideal.reduce` per border monomial."""
    shifted = [[tuple(x + (i == k) for i, x in enumerate(b)) for b in algebra.basis]
               for k in range(len(algebra.vars))]
    border = {e: linalg.integer_vector(algebra.to_vector(SparsePoly.monomial(algebra.vars, e)))
              for e in {e for row in shifted for e in row if e not in algebra._pos}}
    den = math.lcm(*[d for _, d in border.values()])
    cols = []
    for row in shifted:
        cols_k = []
        for e in row:
            if e in algebra._pos:
                cols_k.append([(algebra._pos[e], den)])
            else:
                nums, d = border[e]
                cols_k.append([(r, x * (den // d)) for r, x in enumerate(nums) if x])
        cols.append(cols_k)
    return cols, den


def pairwise_idempotent_check(algebra, factors):
    """e_i^2 = e_i, e_i e_j = 0 for every pair i < j, sum e_i = 1 and the
    dimensions adding up, on integers; a failure raises RuntimeError."""
    scaled = [linalg.integer_vector(f.idempotent) for f in factors]
    for i, (n, d) in enumerate(scaled):
        if algebra._product(n, n) != [x * d * algebra._den for x in n]:
            raise RuntimeError("idempotent fails e^2 = e")
        if any(any(algebra._product(n, other)) for other, _ in scaled[i + 1:]):
            raise RuntimeError("idempotents are not orthogonal")
    if [sum(col) for col in zip(*[f.idempotent for f in factors])] != algebra.one():
        raise RuntimeError("idempotents do not sum to 1")
    if sum(f.dim for f in factors) != algebra.dim:
        raise RuntimeError("factor dimensions do not sum to the algebra dimension")


def rederived_decompose_local(algebra, seed: int = 0) -> list[LocalFactor]:
    """`decompose_local` as it was before pieces inherited their split:
    every piece goes back on the work list, ranks its basis against Rad A
    afresh, and tries the candidates again from the first.  Each factor
    keeps the residue dimension so ranked."""
    if algebra.dim == 0:
        return []
    variables = linalg.MatrixFamily(algebra._vars)
    finished: list[LocalFactor] = []
    work = [LocalFactor(algebra,
                        [linalg.unit_vector(algebra.dim, i) for i in range(algebra.dim)],
                        algebra.one())]
    while work:
        factor = work.pop()
        split = _rederived_try_split(algebra, variables, factor, seed)
        if split is None:
            finished.append(factor)
        else:
            work.extend(LocalFactor(algebra, b, e) for b, e in split)
    finished.sort(key=lambda f: (-f.dim, [str(c) for c in f.idempotent]))
    pairwise_idempotent_check(algebra, finished)
    return finished


def _rederived_try_split(algebra, variables, factor: LocalFactor, seed):
    k = factor.dim
    if k == 1:
        return None
    rad = algebra.radical_basis()
    r = factor.residue_dim = linalg.rank(factor.basis_vectors + rad) - len(rad)
    if r == 1:
        return None  # residue field Q: already local
    e = factor.idempotent
    basis = linalg.transpose(factor.basis_vectors)
    for coeffs in artin._candidate_combinations(len(algebra.vars), seed):
        m, den = variables.combine(coeffs)
        mu = linalg.annihilator(m, e, den)
        parts = univar.coprime_factorization(mu)
        if len(parts) == 1:
            if univar.deg(parts[0][0]) == r:
                return None
            continue
        moduli = [functools.reduce(univar.mul, [q] * mult) for q, mult in parts]
        pieces = []
        for c in univar.crt_idempotents(moduli):
            e_i = linalg.poly_apply(c, m, e, den)
            images = linalg.mat_mul(algebra._multiplications.combine(e_i)[0], basis)
            pieces.append((linalg.echelon_rows(linalg.transpose(images))[0], e_i))
        if sum(len(b) for b, _ in pieces) != k:
            raise RuntimeError("idempotent split lost dimensions")
        return pieces
    raise RuntimeError(
        f"no split certified for a factor of dimension {k} with residue dimension {r} "
        f"after {len(algebra.vars) + artin.EXTRA_TRIALS} candidates")


# ---------- local cohomology, one multidegree at a time ----------
# The parent's `localcoh` path: every complex, fibre and sequence is rebuilt
# for each degree of a window, and "which pieces are nonzero" is decided
# coordinate by coordinate.  The per-pattern code must agree with it.

def minimalize_monomials(exps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Drop every monomial divisible by another one in the list."""
    uniq = sorted(set(tuple(e) for e in exps))
    return [
        e for e in uniq
        if not any(f != e and all(f[i] <= e[i] for i in range(len(e))) for f in uniq)
    ]


class PerDegreeCech:
    """The Cech complex on monomial generators, evaluated one multidegree
    at a time (the parent of the per-pattern `CechComplex`)."""

    def __init__(self, nvars: int, generators: list[tuple[int, ...]]):
        if not generators:
            raise ValueError("need at least one generator")
        for e in generators:
            if len(e) != nvars or all(x == 0 for x in e):
                raise ValueError(f"bad monomial exponent {e}")
        self.nvars = nvars
        self.generators = [tuple(e) for e in generators]
        self.r = len(self.generators)
        self._subsets = {t: list(combinations(range(self.r), t))
                         for t in range(self.r + 1)}
        self._support = {}
        for t, subs in self._subsets.items():
            for T in subs:
                sup = set()
                for i in T:
                    sup.update(j for j, x in enumerate(self.generators[i]) if x > 0)
                self._support[T] = frozenset(sup)

    def levels(self) -> int:
        return self.r + 1

    def piece_nonzero(self, T: tuple[int, ...], d: tuple[int, ...]) -> bool:
        sup = self._support[T]
        return all(x >= 0 for j, x in enumerate(d) if j not in sup)

    def piece_dims(self, t: int, d: tuple[int, ...]) -> list[int]:
        return [1 if self.piece_nonzero(T, d) else 0 for T in self._subsets[t]]

    def level_dim(self, t: int, d: tuple[int, ...]) -> int:
        return sum(self.piece_dims(t, d))

    def active_subsets(self, t: int, d: tuple[int, ...]):
        return [T for T in self._subsets[t] if self.piece_nonzero(T, d)]

    def differential(self, t: int, d: tuple[int, ...]):
        """Matrix of C^t_d -> C^(t+1)_d in the active-subset bases."""
        src = self.active_subsets(t, d)
        tgt = self.active_subsets(t + 1, d)
        tgt_pos = {T: i for i, T in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, T in enumerate(src):
            remaining = [i for i in range(self.r) if i not in T]
            for new in remaining:
                T2 = tuple(sorted(T + (new,)))
                i = tgt_pos.get(T2)
                if i is None:
                    continue
                sign = (-1) ** T2.index(new)
                mat[i][j] += sign
        return mat

    def complex_at(self, d: tuple[int, ...]):
        dims = [self.level_dim(t, d) for t in range(self.levels())]
        diffs = [self.differential(t, d) for t in range(self.levels() - 1)]
        return dims, diffs

    def cohomology_dim(self, i: int, d: tuple[int, ...]) -> int:
        if not 0 <= i <= self.r:
            raise ValueError(f"cohomological degree {i} out of range")
        dims, diffs = self.complex_at(d)
        return linalg.cohomology_dim(dims, [linalg.rank(m) for m in diffs], i)


def old_mv_dimension_check(i_gens: list[tuple[int, ...]], j_gens: list[tuple[int, ...]],
                       window: list[tuple[int, int]], nvars: int | None = None) -> dict:
    """Per-degree dimensions of the four Mayer-Vietoris columns and their
    alternating sums (which vanish when the long sequence is exact)."""
    n = nvars if nvars is not None else len(window)
    sum_gens = minimalize_monomials(list(i_gens) + list(j_gens))
    cap_gens = minimalize_monomials(
        [monomial_lcm(a, b) for a in i_gens for b in j_gens]
    )
    complexes = {
        "sum": PerDegreeCech(n, sum_gens),
        "I": PerDegreeCech(n, list(i_gens)),
        "J": PerDegreeCech(n, list(j_gens)),
        "cap": PerDegreeCech(n, cap_gens),
    }
    top = max(c.r for c in complexes.values())
    per_degree = {}
    all_zero = True
    for d in window_degrees(window):
        entry = {}
        for name, cech in complexes.items():
            entry[name] = [cech.cohomology_dim(i, d) for i in range(top + 1)
                           if i <= cech.r] + [0] * (top - cech.r)
        alt = 0
        for i in range(top + 1):
            alt += (-1) ** i * (entry["sum"][i] - entry["I"][i]
                                - entry["J"][i] + entry["cap"][i])
        entry["alternating_sum"] = alt
        if alt != 0:
            all_zero = False
        per_degree[d] = entry
    return {"degrees": per_degree, "all_alternating_sums_zero": all_zero}


# ---------- cohomology pieces in left-nullspace coordinates ----------

class OldCohPiece:
    """Cohomology of a finite complex at one level, with class coordinates."""

    def __init__(self, dims, diffs, t):
        self.ambient_dim = dims[t]
        if self.ambient_dim == 0:
            self.z_cols = []
            self.h_dim = 0
            self.q_rows = []
            return
        if t < len(diffs) and len(diffs[t]) > 0:
            self.z_cols = linalg.nullspace(diffs[t])
        else:
            self.z_cols = [linalg.unit_vector(self.ambient_dim, i)
                           for i in range(self.ambient_dim)]
        b_cols = []
        if t >= 1 and dims[t - 1] > 0:
            b_cols = [v for v in linalg.transpose(diffs[t - 1]) if any(v)]
        self._z_span = linalg.Subspace(self.ambient_dim, self.z_cols)
        beta_cols = []
        for b in b_cols:
            coords = subspace_coords(self._z_span, b)
            if coords is None:
                raise RuntimeError("boundary outside the cocycles")
            beta_cols.append(coords)
        z = len(self.z_cols)
        if beta_cols:
            beta = linalg.transpose(beta_cols)
            self.q_rows = linalg.nullspace(linalg.transpose(beta))
        else:
            self.q_rows = [linalg.unit_vector(z, i) for i in range(z)]
        self.h_dim = len(self.q_rows)

    def class_of(self, vector):
        """H-coordinates of an ambient cocycle."""
        if self.h_dim == 0:
            return []
        coords = subspace_coords(self._z_span, vector)
        if coords is None:
            raise RuntimeError("vector is not a cocycle")
        return [sum((q[i] * coords[i] for i in range(len(coords))), Fraction(0))
                for q in self.q_rows]


def old_induced_map(source: OldCohPiece, target: OldCohPiece, chain_matrix):
    """Matrix on cohomology induced by a chain map at this level, expressed
    in the canonical H-coordinates of both sides."""
    if source.h_dim == 0 or target.h_dim == 0:
        return linalg.zeros(target.h_dim, source.h_dim)
    lifts = _old_h_basis_lifts(source)
    source_classes = linalg.transpose([source.class_of(z) for z in lifts])
    image_classes = linalg.transpose(
        [target.class_of(linalg.mat_vec(chain_matrix, z)) for z in lifts]
    )
    return linalg.mat_mul(image_classes, _inverse(source_classes))


def _old_h_basis_lifts(piece: OldCohPiece):
    """Cocycle representatives whose classes form a basis of H."""
    lifts = []
    seen = linalg.Subspace(piece.h_dim)
    for zc in piece.z_cols:
        if seen.add(piece.class_of(zc)):
            lifts.append(zc)
        if len(lifts) == piece.h_dim:
            break
    if len(lifts) != piece.h_dim:
        raise RuntimeError("failed to lift a cohomology basis")
    return lifts


def _inverse(a):
    """Inverse of an invertible square matrix, by row reduction of [a | 1]."""
    n = len(a)
    r, pivots = linalg.rref([row[:] + linalg.unit_vector(n, i) for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


class PerDegreeMV:
    """The full connecting-map apparatus for I = (f), J = (g)."""

    def __init__(self, f: tuple[int, ...], g: tuple[int, ...], nvars: int):
        self.nvars = nvars
        self.f = tuple(f)
        self.g = tuple(g)
        self.h = monomial_lcm(self.f, self.g)
        self.cf = PerDegreeCech(nvars, [self.f])
        self.cg = PerDegreeCech(nvars, [self.g])
        self.ch = PerDegreeCech(nvars, [self.h])
        self.cfg = PerDegreeCech(nvars, minimalize_monomials([self.f, self.g]))
        # per-degree memos: the oracle and exactness checks revisit the
        # same degrees
        self._fibres: dict[tuple[int, ...], tuple] = {}
        self._sequences: dict[tuple[int, ...], dict] = {}

    # -- complexes at a fixed multidegree --

    def _restriction(self, src: PerDegreeCech, t: int, d):
        """Natural map C^t(src) -> C^t(C(h)) on pieces (subset patterns of a
        principal complex match up: both have one subset per level)."""
        src_dims = src.piece_dims(t, d)
        tgt_dims = self.ch.piece_dims(t, d)
        mat = linalg.zeros(sum(tgt_dims), sum(src_dims))
        if sum(src_dims) and sum(tgt_dims):
            mat[0][0] = Fraction(1)
        return mat

    def middle_at(self, d):
        """C(f) (+) C(g) at degree d: dims and differentials."""
        f_dims = [self.cf.level_dim(t, d) for t in range(2)]
        g_dims = [self.cg.level_dim(t, d) for t in range(2)]
        dims = [f_dims[t] + g_dims[t] for t in range(2)]
        diff = block_matrix(
            [[self.cf.differential(0, d), None], [None, self.cg.differential(0, d)]],
            [f_dims[1], g_dims[1]], [f_dims[0], g_dims[0]])
        return dims, [diff]

    def u_at(self, t: int, d):
        """Difference of restrictions on level t at degree d."""
        uf = self._restriction(self.cf, t, d)
        ug = _negated(self._restriction(self.cg, t, d))
        return block_matrix([[uf, ug]], [self.ch.level_dim(t, d)],
                                   [self.cf.level_dim(t, d), self.cg.level_dim(t, d)])

    def fibre_at(self, d):
        """The homotopy fibre F of u at degree d: F^t = M^t (+) C(h)^(t-1),
        d(m, c) = (d m, u(m) - d c).  Built once per degree."""
        d = tuple(d)
        if d not in self._fibres:
            self._fibres[d] = self._build_fibre(d)
        return self._fibres[d]

    def _build_fibre(self, d):
        m_dims, m_diffs = self.middle_at(d)
        h_dims = [self.ch.level_dim(t, d) for t in range(2)]
        dims = [m_dims[0], m_dims[1] + h_dims[0], h_dims[1]]
        # d0: m |-> (d_M m, u0 m)
        d0 = block_matrix([[m_diffs[0]], [self.u_at(0, d)]],
                                 [m_dims[1], h_dims[0]], [m_dims[0]])
        # d1: (m1, c0) |-> u1 m1 - d_C c0
        minus_dc = _negated(self.ch.differential(0, d))
        d1 = block_matrix([[self.u_at(1, d), minus_dc]],
                                 [h_dims[1]], [m_dims[1], h_dims[0]])
        return dims, [d0, d1]

    # -- the long exact sequence with explicit maps --

    def sequence_at(self, d):
        """Cohomology pieces and the three induced maps at degree d.

        Returns a dict with H(F), H(M), H(C) per level and matrices for
        rho (projection), pi (difference of restrictions), delta
        (inclusion of the shifted h-complex).  Built once per degree."""
        d = tuple(d)
        if d not in self._sequences:
            self._sequences[d] = self._build_sequence(d)
        return self._sequences[d]

    def _build_sequence(self, d):
        f_dims, f_diffs = self.fibre_at(d)
        m_dims, m_diffs = self.middle_at(d)
        h_dims = [self.ch.level_dim(t, d) for t in range(2)]
        h_diffs = [self.ch.differential(0, d)]
        HF = [OldCohPiece(f_dims, f_diffs, t) for t in range(3)]
        HM = [OldCohPiece(m_dims, m_diffs, t) for t in range(2)]
        HC = [OldCohPiece(h_dims, h_diffs, t) for t in range(2)]
        rho, pi, delta = {}, {}, {}
        for t in range(2):
            # rho^t: F^t -> M^t, projection onto the middle block
            proj = linalg.zeros(m_dims[t], f_dims[t])
            for i in range(m_dims[t]):
                proj[i][i] = Fraction(1)
            rho[t] = old_induced_map(HF[t], HM[t], proj)
            # pi^t: M^t -> C^t
            pi[t] = old_induced_map(HM[t], HC[t], self.u_at(t, d))
            # delta^t: C^t -> F^(t+1), c |-> (0, c)
            incl = linalg.zeros(f_dims[t + 1], h_dims[t])
            offset = f_dims[t + 1] - h_dims[t]
            for i in range(h_dims[t]):
                incl[offset + i][i] = Fraction(1)
            delta[t] = old_induced_map(HC[t], HF[t + 1], incl)
        return {"HF": HF, "HM": HM, "HC": HC, "rho": rho, "pi": pi, "delta": delta}

    def fibre_matches_sum_cech(self, d) -> bool:
        """Oracle: H^t(F)_d equals the two-generator Cech cohomology of
        (f, g) at d, for every t."""
        f_dims, f_diffs = self.fibre_at(d)
        for t in range(3):
            hf = linalg.cohomology_dim(f_dims, [linalg.rank(m) for m in f_diffs], t)
            expected = self.cfg.cohomology_dim(t, d) if t <= self.cfg.r else 0
            if hf != expected:
                return False
        return True

    def exact_at(self, d) -> bool:
        """Exactness of the six-node window of the long sequence at d."""
        seq = self.sequence_at(d)
        nodes = []
        # ... -> H^t(F) -> H^t(M) -> H^t(C) -> H^(t+1)(F) -> ...
        for t in range(2):
            prev_delta = seq["delta"][t - 1] if t >= 1 else None
            nodes.append((prev_delta, seq["HF"][t], seq["rho"][t]))
            nodes.append((seq["rho"][t], seq["HM"][t], seq["pi"][t]))
            nodes.append((seq["pi"][t], seq["HC"][t], seq["delta"][t]))
        nodes.append((seq["delta"][1], seq["HF"][2], None))
        for incoming, piece, outgoing in nodes:
            dim = piece.h_dim
            rank_in = linalg.rank(incoming) if incoming is not None else 0
            rank_out = linalg.rank(outgoing) if outgoing is not None else 0
            if incoming is not None and outgoing is not None:
                comp = linalg.mat_mul(outgoing, incoming)
                if not linalg.is_zero_matrix(comp):
                    return False
            if rank_in + rank_out != dim:
                return False
        return True


def _negated(m):
    return [[-x for x in row] for row in m]


def old_mv_connecting_biprincipal(f: tuple[int, ...], g: tuple[int, ...],
                              window: list[tuple[int, int]],
                              nvars: int | None = None) -> dict:
    """Build the fibre complex for I = (f), J = (g) and verify, per degree:
    the fibre-vs-Cech oracle and exactness of the long sequence."""
    n = nvars if nvars is not None else len(window)
    mv = PerDegreeMV(f, g, n)
    degrees = list(window_degrees(window))
    return {
        "h_oracle_matches": all(mv.fibre_matches_sum_cech(d) for d in degrees),
        "long_sequence_exact": all(mv.exact_at(d) for d in degrees),
        "lcm": mv.h,
    }


def localization_piece_nonzero(f: tuple[int, ...], d: tuple[int, ...],
                               mod_r: bool = False) -> bool:
    sup = {j for j, x in enumerate(f) if x > 0}
    if not all(x >= 0 for j, x in enumerate(d) if j not in sup):
        return False
    if mod_r and all(x >= 0 for x in d):
        return False
    return True


def old_gamma_torsion_localization(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                               window: list[tuple[int, int]],
                               mod_r: bool = False) -> dict:
    """Per-degree torsion indicator of Gamma_I on R_f (or R_f/R).

    A basis class x^d is torsion iff some power of every generator pushes
    it to zero; in R_f itself no nonzero class is torsion (the ring is a
    domain), while in R_f/R the criterion is that every variable with a
    negative exponent divides every generator."""
    if not i_gens:
        raise ValueError("need generators")
    common = [min(g[j] for g in i_gens) for j in range(len(f))]
    out = {}
    for d in window_degrees(window):
        if not localization_piece_nonzero(f, d, mod_r):
            out[d] = 0
            continue
        if not mod_r:
            out[d] = 0  # a domain has no torsion
            continue
        negative = [j for j, x in enumerate(d) if x < 0]
        out[d] = 1 if all(common[j] > 0 for j in negative) else 0
    return out


def old_gamma_dstable_check(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                        window: list[tuple[int, int]],
                        mod_r: bool = False) -> dict:
    """Every partial derivative of every torsion basis class stays torsion
    (or leaves the window, which is flagged, not failed)."""
    torsion = old_gamma_torsion_localization(f, i_gens, window, mod_r)
    n = len(f)
    flagged = 0
    for d, is_torsion in torsion.items():
        if not is_torsion:
            continue
        for k in range(n):
            scalar = d[k]
            if scalar == 0:
                continue
            d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
            if any(not (lo <= x <= hi) for x, (lo, hi) in zip(d2, window)):
                flagged += 1
                continue
            if not localization_piece_nonzero(f, d2, mod_r):
                continue  # the image is zero in the module
            if not torsion[d2]:
                return {"stable": False, "failure": (d, k), "flagged": flagged,
                        "torsion_count": sum(torsion.values())}
    return {"stable": True, "failure": None, "flagged": flagged,
            "torsion_count": sum(torsion.values())}


# ---------- span questions, one fresh row reduction at a time ----------
# The parent's `linalg` helpers; `linalg.Subspace` must agree with them.

def old_column_space_contains(basis_cols: list, v: list) -> bool:
    if all(x == 0 for x in v):
        return True
    if not basis_cols:
        return False
    return linalg.solve(linalg.transpose(basis_cols), v) is not None


def old_independent_columns(cols: list) -> list:
    """A maximal linearly independent subset, in order."""
    out: list = []
    for v in cols:
        if not old_column_space_contains(out, v):
            out.append(v)
    return out


def old_subspace_equal(u_cols: list, v_cols: list) -> bool:
    return (all(old_column_space_contains(v_cols, u) for u in u_cols)
            and all(old_column_space_contains(u_cols, v) for v in v_cols))


class OldColumnSolver:
    """Repeated solving of B c = w for a fixed B, by one rref of [B | I]."""

    def __init__(self, b_columns: list):
        self.cols = len(b_columns)
        self.rows = len(b_columns[0]) if b_columns else 0
        b = linalg.transpose(b_columns) if b_columns else []
        aug = [b[i][:] + linalg.unit_vector(self.rows, i) for i in range(self.rows)]
        r, pivots = linalg.rref(aug)
        self.pivots = [p for p in pivots if p < self.cols]
        self.ops = [row[self.cols:] for row in r]
        self.rank = len(self.pivots)

    def solve(self, w: list) -> list | None:
        support = [(j, x) for j, x in enumerate(w) if x != 0]
        ew = [sum((row[j] * x for j, x in support), Fraction(0)) for row in self.ops]
        for i in range(self.rank, self.rows):
            if ew[i] != 0:
                return None
        # free variables are zero, so each pivot coordinate reads off directly
        c = [Fraction(0)] * self.cols
        for i, p in enumerate(self.pivots):
            c[p] = ew[i]
        return c


class KrylovReducer:
    """Incremental echelon tracking for minimal polynomials of vectors."""

    def __init__(self, n: int):
        self.n = n
        self.pivot_of: dict[int, int] = {}
        self.reduced: list = []
        self.combos: list = []  # coefficients over the power basis

    def reduce(self, v: list, combo: list) -> tuple[list, list]:
        v = v[:]
        combo = combo[:]
        for pivot, idx in self.pivot_of.items():
            c = v[pivot]
            if c != 0:
                rv = self.reduced[idx]
                rc = self.combos[idx]
                for i in range(self.n):
                    v[i] -= c * rv[i]
                for i in range(len(rc)):
                    if i < len(combo):
                        combo[i] -= c * rc[i]
                    else:
                        combo.append(-c * rc[i])
        return v, combo

    def insert(self, v: list, combo: list) -> bool:
        """Returns False (and records) if independent, True if v reduced to 0."""
        v, combo = self.reduce(v, combo)
        pivot = next((i for i in range(self.n) if v[i] != 0), None)
        if pivot is None:
            self.relation = combo
            return True
        inv = Fraction(1) / v[pivot]
        self.reduced.append([x * inv for x in v])
        self.combos.append([x * inv for x in combo])
        self.pivot_of[pivot] = len(self.reduced) - 1
        return False


def old_minimal_polynomial_of_vector(a: list, v: list) -> list[Fraction]:
    red = KrylovReducer(len(v))
    w = v[:]
    k = 0
    while True:
        combo = [Fraction(0)] * k + [Fraction(1)]
        if red.insert(w, combo):
            rel = red.relation
            lead = rel[-1]
            return [Fraction(c) / lead for c in rel]
        w = old_mat_vec(a, w)
        k += 1


# ---------- localized fractions and operator powers ----------
# The parent's `ore` code: every univariate fraction rebased into one
# expanded denominator, and powers of an operator as k-fold products.

def from_sparse(p: SparsePoly, index: int = 0) -> list:
    """Dense coefficients of p, which must only involve variable `index`."""
    out = [0] * (p.degree_in(index) + 1 if not p.is_zero() else 0)
    for e, c in p.terms.items():
        if any(x != 0 for i, x in enumerate(e) if i != index):
            raise ValueError("polynomial is not univariate in the given variable")
        out[e[index]] = c
    return trim(out)


def old_simplify_fraction(num: SparsePoly, base: SparsePoly, power: int):
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
    if len(base.terms) == 1:
        be, bc = next(iter(base.terms.items()))
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
        i = active[0]
        dn = from_sparse(num, i)
        dd = from_sparse(base ** power, i)
        g = univar.gcd(dn, dd)
        if univar.deg(g) > 0:
            dn = univar.divmod_poly(dn, g)[0]
            dd = univar.divmod_poly(dd, g)[0]
        lead = dd[-1]
        dn = univar.scale(dn, Fraction(1) / lead)
        dd = univar.scale(dd, Fraction(1) / lead)
        num = univar.to_sparse(dn, vars_, i)
        new_base = univar.to_sparse(dd, vars_, i)
        if new_base == SparsePoly.one(vars_):
            return num, SparsePoly.one(vars_), 0
        return num, new_base, 1
    return num, base, power


def old_diffop_power(op: DiffOp, k: int) -> DiffOp:
    result = DiffOp.one(op.ring)
    for _ in range(k):
        result = result * op
    return result


def old_rref(a: list) -> tuple[list, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = linalg.copy(a)
    rows, cols = linalg.shape(m)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def old_rank(a: list) -> int:
    if not a or not a[0]:
        return 0
    return len(old_rref(a)[1])


def old_nullspace(a: list) -> list:
    """Basis of {v : a v = 0}, one vector per free column."""
    rows, cols = linalg.shape(a)
    if cols == 0:
        return []
    r, pivots = old_rref(a)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = linalg.unit_vector(cols, f)
            for i, p in enumerate(pivots):
                v[p] = -r[i][f]
            basis.append(v)
    return basis


def old_solve(a: list, b: list) -> list | None:
    """One solution of a x = b (free variables set to 0), or None."""
    rows, cols = linalg.shape(a)
    aug = [a[i][:] + [Fraction(b[i])] for i in range(rows)]
    r, pivots = old_rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def old_mat_mul(a: list, b: list) -> list:
    ra, ca = linalg.shape(a)
    rb, cb = linalg.shape(b)
    if ra == 0:
        return []
    if ca == 0 or rb == 0 or cb == 0:
        return linalg.zeros(ra, cb)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    zero = Fraction(0)
    b_support = [[(k, y) for k, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row in a:
        acc = [zero] * cb
        for j, x in enumerate(row):
            if x != 0:
                for k, y in b_support[j]:
                    acc[k] += x * y
        out.append(acc)
    return out


def old_mat_vec(a: list, v: list) -> list:
    for row in a:
        if len(row) != len(v):
            raise ValueError(f"shape mismatch {len(a)}x{len(row)} * vector of length {len(v)}")
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    return [sum((row[j] * x for j, x in support), Fraction(0)) for row in a]


# ---------- Artinian products over a Fraction table ----------

def old_structure_table(algebra) -> list:
    """table[i][j]: the coordinates of basis_i * basis_j, one Groebner
    reduction per product monomial."""
    nf_cache = {}

    def nf_of(exp):
        if exp not in nf_cache:
            nf_cache[exp] = algebra.to_vector(SparsePoly.monomial(algebra.vars, exp))
        return nf_cache[exp]

    return [[nf_of(tuple(a + b for a, b in zip(ei, ej))) for ej in algebra.basis]
            for ei in algebra.basis]


def old_mult(table: list, u: list, v: list) -> list:
    out = [Fraction(0)] * len(table)
    for i, ci in enumerate(u):
        if ci == 0:
            continue
        for j, cj in enumerate(v):
            if cj == 0:
                continue
            c = ci * cj
            for k, t in enumerate(table[i][j]):
                if t != 0:
                    out[k] += c * t
    return out


def old_mult_matrix(table: list, v: list) -> list:
    n = len(table)
    return linalg.transpose([old_mult(table, v, linalg.unit_vector(n, j)) for j in range(n)])


def old_basis_traces(table: list) -> list:
    n = len(table)
    return [sum((table[k][j][j] for j in range(n)), Fraction(0)) for k in range(n)]


def old_radical_basis(table: list) -> list:
    """Kernel of the trace form tr(basis_i * basis_j), over Fractions."""
    n = len(table)
    if n == 0:
        return []
    traces = old_basis_traces(table)
    gram = [[sum((c * t for c, t in zip(table[i][j], traces)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    return old_nullspace(gram)


# ---------- spans, actions, Horner and Euclid over Fractions ----------

class OldSubspace:
    """A subspace of Q^n whose rows are kept in reduced row echelon form
    over Fractions, each with its Fraction combination over `basis`."""

    def __init__(self, n: int, vectors=()):
        self._n = n
        self.basis: list = []
        self._rows: dict = {}  # pivot -> row
        self._combos: dict = {}  # pivot -> row as a combination of basis
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, v: list, track: bool):
        if len(v) != self._n:
            raise ValueError(f"vector of length {len(v)} in a subspace of Q^{self._n}")
        r = list(v)
        combo = [Fraction(0)] * len(self.basis) if track else None
        for p, row in self._rows.items():
            c = r[p]
            if c:
                for j, y in enumerate(row):
                    if y:
                        r[j] -= c * y
                if track:
                    combo = [x + c * y for x, y in zip(combo, self._combos[p])]
        return r, combo

    def add(self, v: list) -> bool:
        r, combo = self._reduce(v, True)
        q = next((j for j, x in enumerate(r) if x), None)
        if q is None:
            return False
        for row_combo in self._combos.values():
            row_combo.append(Fraction(0))
        inv = 1 / Fraction(r[q])
        row = [x * inv for x in r]
        row_combo = [-x * inv for x in combo] + [inv]
        for p, other in self._rows.items():
            a = other[q]
            if a:
                for j, y in enumerate(row):
                    if y:
                        other[j] -= a * y
                self._combos[p] = [x - a * y for x, y in zip(self._combos[p], row_combo)]
        self._rows[q] = row
        self._combos[q] = row_combo
        self.basis.append(list(v))
        return True

    def __contains__(self, v: list) -> bool:
        return not any(self._reduce(v, False)[0])

    def coords(self, v: list):
        r, combo = self._reduce(v, True)
        return None if any(r) else combo

    def project(self, v: list) -> list:
        r = self._reduce(v, False)[0]
        return [x for j, x in enumerate(r) if j not in self._rows]

    def __eq__(self, other) -> bool:
        return self._n == other._n and self._rows == other._rows


def old_action_of_vector(module, v: list) -> list:
    """The action of the algebra element v on an ArtinModule, one Fraction
    multiply-add per entry of each monomial action."""
    out = linalg.zeros(module.dim, module.dim)
    for e, c in zip(module.algebra.basis, v):
        if c == 0:
            continue
        for out_row, row in zip(out, module.monomial_action(e)):
            for j, x in enumerate(row):
                if x:
                    out_row[j] += c * x
    return out


def old_poly_apply(coeffs: list, a: list, v: list) -> list:
    """p(a) v by Horner on Fraction vectors, as `_try_split` evaluated e(a)*1."""
    out = [Fraction(0)] * len(v)
    for c in reversed(coeffs):
        out = old_mat_vec(a, out)
        out = [x + c * y for x, y in zip(out, v)]
    return out


def old_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def old_monic(a: list) -> list:
    if not a:
        return []
    inv = Fraction(1) / a[-1]
    return [x * inv for x in a]


def _old_add(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def _old_sub(a: list, b: list) -> list:
    return _old_add(a, [-x for x in b])


def old_divmod_poly(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db, lb = deg(b), b[-1]
    while r and deg(r) >= db:
        k = deg(r) - db
        c = Fraction(r[-1]) / lb
        q[k] = c
        for i in range(len(b)):
            r[i + k] -= c * b[i]
        trim(r)
    return trim(q), r


def old_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, old_divmod_poly(a, b)[1]
    return old_monic(a)


def old_squarefree_decomposition(a: list) -> list:
    a = old_monic(a)
    if deg(a) <= 0:
        return []
    out = []
    g = old_gcd(a, trim([a[i] * i for i in range(1, len(a))]))
    w = old_divmod_poly(a, g)[0]
    i = 1
    while deg(w) > 0:
        y = old_gcd(w, g)
        factor = old_divmod_poly(w, y)[0]
        if deg(factor) > 0:
            out.append((old_monic(factor), i))
        w = y
        g = old_divmod_poly(g, y)[0]
        i += 1
    return out


def old_xgcd(a: list, b: list) -> tuple[list, list, list]:
    r0, r1, s0, s1, t0, t1 = a, b, [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = old_divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _old_sub(s0, old_mul(q, s1))
        t0, t1 = t1, _old_sub(t0, old_mul(q, t1))
    if not r0:
        return [], s0, t0
    inv = Fraction(1) / r0[-1]
    return [x * inv for x in r0], [x * inv for x in s0], [x * inv for x in t0]


def old_crt_idempotents(moduli: list) -> list:
    total = [Fraction(1)]
    for p in moduli:
        total = old_mul(total, p)
    out = []
    for p in moduli:
        rest = old_divmod_poly(total, p)[0]
        _, _, t = old_xgcd(p, old_divmod_poly(rest, p)[1])
        out.append(old_mul(t, rest))
    return out


# ---------- polynomial arithmetic on Fractions ----------
# The parent's `SparsePoly` loops, on term maps {exponents: coefficient}
# with every coefficient made a Fraction; each returns such a term map.

def _fraction_terms(terms: dict) -> dict:
    return {e: Fraction(c) for e, c in terms.items()}


def old_poly_add(a: dict, b: dict) -> dict:
    terms = _fraction_terms(a)
    for e, c in _fraction_terms(b).items():
        acc = terms.get(e)
        s = c if acc is None else acc + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return terms


def old_poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in _fraction_terms(a).items():
        for e2, c2 in _fraction_terms(b).items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc = out.get(e)
            s = c1 * c2 if acc is None else acc + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def old_partial(a: dict, index: int) -> dict:
    out = {}
    for e, c in _fraction_terms(a).items():
        k = e[index]
        if k == 0:
            continue
        e2 = list(e)
        e2[index] = k - 1
        out[tuple(e2)] = c * k
    return out


# ---------- the Groebner reduction kernel on exponent tuples ----------
# The parent's integer reduction core: monomials are exponent tuples, each
# new term pays a `TermOrder` key call for its heap entry, and every head
# test compares tuples slot by slot.

def _old_divides(e1, e2):
    return all(map(le, e1, e2))


def _old_front(terms, key):
    front = [(tuple([-k for k in key(e)]), e) for e in terms]
    heapify(front)
    return dict(terms), front


def _old_pop_head(work, front):
    while True:
        e = heappop(front)[1]
        c = work.pop(e, None)
        if c is not None:
            return e, c


def _old_subtract(work, front, key, fac, shift, tail):
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


def _old_primitive(terms):
    den = math.lcm(*[c.denominator for c in terms.values()])
    num = math.gcd(*[c.numerator for c in terms.values()]) or 1
    return {e: c.numerator * (den // c.denominator) // num for e, c in terms.items()}, den, num


def _old_record(ints, key):
    he = max(ints, key=key)
    return he, ints[he], [(e, c) for e, c in ints.items() if e != he]


def _old_divisor_records(basis, key):
    return [_old_record(_old_primitive(g.terms)[0], key) for g in basis if g.terms]


def old_reduce(work, front, key, divisors):
    """Pseudo-reduce integer working terms (exponent tuple -> int) by divisor
    records (head, head coefficient, tail); returns (r, lam, content) with r
    primitive and content * r = lam * (the normal form of the input)."""
    remainder = {}
    lam = 1
    while work:
        e, c = _old_pop_head(work, front)
        for he, hc, tail in divisors:
            if _old_divides(he, e):
                g = math.gcd(c, hc)
                m, q = hc // g, c // g
                if m < 0:
                    m, q = -m, -q
                if m != 1:
                    work = {t: v * m for t, v in work.items()}
                    remainder = {t: v * m for t, v in remainder.items()}
                    lam *= m
                _old_subtract(work, front, key, q, tuple(map(sub, e, he)), tail)
                break
        else:
            remainder[e] = c
    r, _, content = _old_primitive(remainder)
    return r, lam, content


def old_reduce_poly(f: SparsePoly, basis: list[SparsePoly], order) -> SparsePoly:
    key = order.key_for(len(f.vars))
    divisors = _old_divisor_records(basis, key)
    if not divisors or not f.terms:
        return f
    ints, den, num = _old_primitive(f.terms)
    r, lam, content = old_reduce(*_old_front(ints, key), key, divisors)
    a, b = content * num, lam * den
    return SparsePoly(f.vars, {e: Fraction(c * a, b) for e, c in r.items()})


def old_divide_exact(f: SparsePoly, g: SparsePoly, order) -> SparsePoly | None:
    if f.is_zero():
        return SparsePoly.zero(f.vars)
    key = order.key_for(len(f.vars))
    he, hc = g.leading_term(order)
    tail = [(ge, gc) for ge, gc in g.terms.items() if ge != he]
    quotient = {}
    work, front = _old_front(f.terms, key)
    while work:
        e, c = _old_pop_head(work, front)
        if not _old_divides(he, e):
            return None
        shift = tuple(map(sub, e, he))
        fac = quotient[shift] = Fraction(c) / hc
        _old_subtract(work, front, key, fac, shift, tail)
    return SparsePoly(f.vars, quotient)


def old_buchberger(generators: list[SparsePoly], order) -> list[SparsePoly]:
    key = order.key_for(len(generators[0].vars))
    basis = _old_divisor_records(generators, key)
    if not basis:
        return []

    def reduced(rec, divisors):
        return old_reduce(*_old_front(dict([rec[:2]] + rec[2]), key), key, divisors)[0]

    changed = True
    while changed:
        changed = False
        for i, rec in enumerate(basis):
            r = reduced(rec, basis[:i] + basis[i + 1:])
            if r != dict([rec[:2]] + rec[2]):
                changed = True
                if r:
                    basis[i] = _old_record(r, key)
                else:
                    basis.pop(i)
                break

    heads: list = []
    active: list[int] = []
    pairs: list = []

    def lcm_of(e1, e2):
        return tuple(map(max, e1, e2))

    def coprime(e1, e2):
        return not any(map(min, e1, e2))

    def update(new: int):
        h = heads[new]
        cands = [(lcm_of(heads[g], h), g) for g in active]
        kept = []
        for n, (l, g) in enumerate(cands):
            if coprime(heads[g], h) or not (
                any(_old_divides(l2, l) for l2, _ in cands[n + 1:])
                or any(_old_divides(l2, l) for l2, _ in kept)
            ):
                kept.append((l, g))
        pairs[:] = [
            p for p in pairs
            if not _old_divides(h, p[3])
            or lcm_of(heads[p[1]], h) == p[3]
            or lcm_of(heads[p[2]], h) == p[3]
        ]
        pairs.extend((key(l), g, new, l) for l, g in kept if not coprime(heads[g], h))
        heapify(pairs)
        active[:] = [g for g in active if not _old_divides(h, heads[g])]
        active.append(new)

    for i, rec in enumerate(basis):
        heads.append(rec[0])
        update(i)
    while pairs:
        _, i, j, l = heappop(pairs)
        hi, ci, ti = basis[i]
        hj, cj, tj = basis[j]
        gamma = math.gcd(ci, cj)
        work, front = {}, []
        _old_subtract(work, front, key, -(cj // gamma), tuple(map(sub, l, hi)), ti)
        _old_subtract(work, front, key, ci // gamma, tuple(map(sub, l, hj)), tj)
        r = old_reduce(work, front, key, [basis[k] for k in active])[0]
        if not r:
            continue
        basis.append(_old_record(r, key))
        heads.append(basis[-1][0])
        update(len(basis) - 1)

    keep = sorted((basis[k] for k in active), key=lambda rec: key(rec[0]))
    out = []
    for i, rec in enumerate(keep):
        r = reduced(rec, keep[:i] + keep[i + 1:])
        hc = r[rec[0]]
        out.append(SparsePoly(generators[0].vars, {e: Fraction(c, hc) for e, c in r.items()}))
    return out


# ---------- saturation by a fixed-point loop ----------

def ideal_includes(I: Ideal, J: Ideal) -> bool:
    """Whether J lies in I: every generator of J reduces to zero modulo I."""
    return all(I.contains(g) for g in J.generators)


def same_ideal(I: Ideal, J: Ideal) -> bool:
    """Whether I and J are the same ideal, by mutual inclusion."""
    return ideal_includes(I, J) and ideal_includes(J, I)


def old_saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity): iterate (I : J) until two consecutive iterates
    agree (mutual inclusion); raises RuntimeError after 64 steps."""
    current = I
    for _ in range(64):
        step = quotient_by_ideal(current, J)
        if same_ideal(step, current):
            return current
        current = step
    raise RuntimeError("saturation did not stabilize within 64 steps")


# ---------- the two-pass parser ----------

@dataclass(frozen=True)
class Num:
    value: Fraction
    span: tuple[int, int]


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple[int, int]


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple[int, int]


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: object
    right: object
    span: tuple[int, int]


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    span: tuple[int, int]


class _OldParser:
    def __init__(self, tokens: list[Token], known_idents):
        self.tokens = tokens
        self.pos = 0
        self.known = known_idents

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text or 'end of input'}", t.span)
        self.pos += 1
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.span)
        return e

    def expr(self):
        t = self.peek()
        if t.kind == "-":
            self.take("-")
            node = Neg(self.term(), t.span)
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take(self.peek().kind)
            node = BinOp(op.kind, node, self.term(), op.span)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            op = self.take("*")
            node = BinOp("*", node, self.factor(), op.span)
        return node

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.take("^")
            t = self.peek()
            if t.kind != "number" or "/" in t.text:
                raise ParseError("exponent must be a non-negative integer", t.span)
            self.take("number")
            return Pow(base, int(t.text), caret.span)
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "number":
            self.take("number")
            if "/" in t.text:
                num, den = t.text.split("/")
                return Num(Fraction(int(num), int(den)), t.span)
            return Num(Fraction(int(t.text)), t.span)
        if t.kind == "ident":
            self.take("ident")
            if t.text not in self.known:
                raise ParseError(f"undeclared identifier {t.text!r}", t.span)
            return Var(t.text, t.span)
        if t.kind == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(f"expected a value, found {t.text or 'end of input'}", t.span)


def _old_parse_expr(text: str, known_idents):
    if not text.strip():
        raise ParseError("empty expression", (0, max(len(text), 1)))
    return _OldParser(tokenize(text), known_idents).parse()


def _old_evaluate(ast, ring: OreRing) -> DiffOp:
    def ev(node) -> DiffOp:
        if isinstance(node, Num):
            return DiffOp.from_poly(ring, SparsePoly.constant(ring.vars, node.value))
        if isinstance(node, Var):
            if node.name in ring.vars:
                return DiffOp.from_poly(
                    ring, SparsePoly.variable(ring.vars, ring.vars.index(node.name))
                )
            return DiffOp.operator(ring, ring.op_names.index(node.name))
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Pow):
            return ev(node.base) ** node.exponent
        left, right = ev(node.left), ev(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right

    return ev(ast)


def old_parse_operator(text: str, ring: OreRing) -> DiffOp:
    known = set(ring.vars) | set(ring.op_names)
    return _old_evaluate(_old_parse_expr(text, known), ring)


def old_parse_polynomial(text: str, variables) -> SparsePoly:
    vs = tuple(variables)
    ring = OreRing.weyl(vs)
    op = _old_evaluate(_old_parse_expr(text, set(vs)), ring)
    if op.op_order() > 0:
        raise ValueError("element has positive operator order")
    return op.terms.get(ring.zero_alpha(), SparsePoly.zero(vs))


# ---------- the primary component inside a truncated hull ----------

def socle_matches_primary_annihilator(ext: CurveExtension,
                                       truncation: int | None = None) -> bool:
    """Inside the truncated hull, (0 :_E nu) = (0 :_E Q_1), checked as
    equality of the subspaces nu*A_B and Q_1*A_B (double annihilators).

    Q_1 is realized as nu*S plus lifts of a basis of the non-matched local
    factors of S/nu*S.
    """
    s = max(1, maximal_ideal_stabilization_index(ext))
    if truncation is None:
        truncation = max(4, s + 1)
    A = ext.quotient_algebra([ext.nu_in_s()])
    factors = decompose_local(A)
    idx = matched_local_factor(A, factors, ext.maximal_ideal)
    hull = TruncatedHull(ext, truncation)
    AB = hull.algebra
    nu_span = linalg.Subspace(AB.dim, linalg.transpose(nu_matrix(hull)))
    q1_span = linalg.Subspace(AB.dim, nu_span.basis)
    for j, factor in enumerate(factors):
        if j == idx:
            continue
        for v in factor.basis_vectors:
            lift = A.to_poly(v)  # monomial representative, lifted through S
            m = mult_matrix(AB, AB.to_vector(lift))
            for col in linalg.transpose(m):
                q1_span.add(col)
    return nu_span == q1_span


def old_model_mult_matrix(model, p: SparsePoly, source_degree: int) -> list:
    """Matrix of multiplication by the homogeneous polynomial p from the
    model's total-degree piece at source_degree to the shifted piece."""
    if p.vars != model.vars:
        raise ValueError("polynomial over the wrong ring")
    if not p.is_homogeneous():
        raise ValueError("multiplier must be homogeneous")
    shift = p.total_degree()
    src = model.piece(source_degree)[0]
    tgt, tgt_pos = model.piece(source_degree + shift)
    mat = linalg.zeros(len(tgt), len(src))
    for j, m in enumerate(src):
        for e, c in p.terms.items():
            out = tuple(x + y for x, y in zip(m, e))
            i = tgt_pos.get(out)
            if i is not None:
                mat[i][j] += c
    return mat


def old_level_one_window(a, model, window, convention):
    """`koszul._level_one_window` by dense blocks: each polynomial entry p
    of the Koszul matrix becomes multiplication by p out of the piece of
    its column subset, and the blocks are assembled and ranked over Q."""
    sign = 1 if convention == "right" else -1
    degs = [f.total_degree() for f in a]
    levels = range(min(len(a), 2) + 1)
    subsets = [list(combinations(range(len(a)), k)) for k in levels]
    mats = [koszul_matrix(a, k, convention) for k in levels[1:]]
    out = {}
    for d in range(window[0], window[1] + 1):
        piece = {T: d + sign * sum(degs[i] for i in T) for subs in subsets for T in subs}
        dims = [[len(model.piece(piece[T])[0]) for T in subs] for subs in subsets]
        diffs = []
        for k, mat in enumerate(mats, start=1):
            tgt, src = (k, k - 1) if convention == "right" else (k - 1, k)
            blocks = [[None if p.is_zero() else old_model_mult_matrix(model, p, piece[subsets[src][j]])
                       for j, p in enumerate(row)] for row in mat]
            diffs.append(block_matrix(blocks, dims[tgt], dims[src]))
        out[d] = linalg.cohomology_dim([sum(ds) for ds in dims],
                                       [linalg.rank(m) for m in diffs], 1)
    return out


# ---------- Weyl and Ore arithmetic ----------
# The parent's `ore` code: op^alpha expanded past a whole polynomial
# coefficient, once per pair of terms, with every result built through the
# validating constructors; the action by repeated `ring.delta` on whole
# polynomials; and (*) tested by rebuilding b*s and its right form for
# every product b of r generators.

def old_leibniz(ring: OreRing, alpha: tuple, psi: SparsePoly, sign: int) -> dict:
    """The Leibniz expansion of op^alpha past psi, as {beta: coeff}: with
    sign +1 the left normal form of op^alpha * psi, with sign -1 the right
    normal form of psi * op^alpha."""
    partial = {(): psi}
    for k, a in enumerate(alpha):
        nxt = {}
        for head, c in partial.items():
            for i in range(a + 1):
                if c.is_zero():
                    break
                nxt[head + (a - i,)] = c * (sign ** i * math.comb(a, i))
                c = ring.delta(k, c)
        partial = nxt
    return partial


def _old_add_term(terms: dict, alpha: tuple, coeff: SparsePoly):
    acc = terms.get(alpha)
    s = coeff if acc is None else acc + coeff
    if s.is_zero():
        terms.pop(alpha, None)
    else:
        terms[alpha] = s


def _old_normal_form(op: DiffOp, form: str) -> DiffOp:
    if op.form == form:
        return op
    out: dict = {}
    for alpha, c in op.terms.items():
        for beta, d in old_leibniz(op.ring, alpha, c, 1 if form == "left" else -1).items():
            _old_add_term(out, beta, d)
    return DiffOp(op.ring, out, form)


def old_to_left(op: DiffOp) -> DiffOp:
    return _old_normal_form(op, "left")


def old_to_right(op: DiffOp) -> DiffOp:
    return _old_normal_form(op, "right")


def old_diffop_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    a, b = old_to_left(a), old_to_left(b)
    out: dict = {}
    for alpha, phi in a.terms.items():
        for beta, psi in b.terms.items():
            # phi * op^alpha * psi * op^beta = sum phi * c * op^(gamma + beta)
            for gamma, c in old_leibniz(a.ring, alpha, psi, 1).items():
                _old_add_term(out, tuple(g + e for g, e in zip(gamma, beta)), phi * c)
    return DiffOp(a.ring, out, "left")


def old_apply(op: DiffOp, m: SparsePoly) -> SparsePoly:
    out = SparsePoly.zero(op.ring.vars)
    for alpha, phi in old_to_left(op).terms.items():
        v = m
        for k, p in enumerate(alpha):
            for _ in range(p):
                v = op.ring.delta(k, v)
        out = out + phi * v
    return out


def old_verify_star(I: Ideal, s: DiffOp, r_max: int) -> int:
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if I.is_zero():
        raise ValueError("(*) needs a nonzero ideal")
    for r in range(1, r_max + 1):
        ok = True
        for combo in combinations_with_replacement(I.generators, r):
            b = SparsePoly.one(s.ring.vars)
            for g in combo:
                b = b * g
            right = old_to_right(old_diffop_mul(DiffOp.from_poly(s.ring, b), s))
            if not all(I.contains(psi) for psi in right.terms.values()):
                ok = False
                break
        if ok:
            return r
    raise StarBoundNotFoundError(
        f"no exponent r <= {r_max} works; the theoretical bound is operator order + 1")

"""Code that faster or simpler production paths replaced, kept as test
oracles.

`old_coprime_factorization` tries every divisor pair of the extreme
coefficients for rational roots and splits quadratics and quartics by
radicals; squarefree remainders of degree >= 5 without a rational root are
kept whole.  `old_decompose_local` splits a factor by stable kernels of
q(m) for the coprime parts q of the quotient minimal polynomial, and
accepts a factor as local after three full-degree candidates above
degree 4.  `PerDegreeCech`, `PerDegreeMV` and the `old_mv_*`/`old_gamma_*`
functions are the local cohomology code that rebuilt every complex at each
multidegree, before `localcoh` built them once per sign pattern.  All are
exact and slow; on inputs they answer correctly the production code must
give identical results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from weylcas import linalg
from weylcas.artin import LocalFactor, _assert_idempotent_system
from weylcas.koszul import WindowMarginError
from weylcas.localcoh import (
    CohPiece,
    _pad,
    induced_map,
    minimalize_monomials,
    monomial_lcm,
    window_degrees,
)
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




# ---------- local cohomology, one multidegree at a time ----------
# The parent's `localcoh` path: every complex, fibre and sequence is rebuilt
# for each degree of a window, and "which pieces are nonzero" is decided
# coordinate by coordinate.  The per-pattern code must agree with it.

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
        return linalg.cohomology_dim(dims, diffs, i)


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
        # per-degree memos: the oracle, exactness and derivative checks all
        # revisit the same degrees
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
        diff = linalg.block_matrix(
            [[self.cf.differential(0, d), None], [None, self.cg.differential(0, d)]],
            [f_dims[1], g_dims[1]], [f_dims[0], g_dims[0]])
        return dims, [diff]

    def u_at(self, t: int, d):
        """Difference of restrictions on level t at degree d."""
        uf = self._restriction(self.cf, t, d)
        ug = _negated(self._restriction(self.cg, t, d))
        return linalg.block_matrix([[uf, ug]], [self.ch.level_dim(t, d)],
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
        d0 = linalg.block_matrix([[m_diffs[0]], [self.u_at(0, d)]],
                                 [m_dims[1], h_dims[0]], [m_dims[0]])
        # d1: (m1, c0) |-> u1 m1 - d_C c0
        minus_dc = _negated(self.ch.differential(0, d))
        d1 = linalg.block_matrix([[self.u_at(1, d), minus_dc]],
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
        HF = [CohPiece(f_dims, f_diffs, t) for t in range(3)]
        HM = [CohPiece(m_dims, m_diffs, t) for t in range(2)]
        HC = [CohPiece(h_dims, h_diffs, t) for t in range(2)]
        rho, pi, delta = {}, {}, {}
        for t in range(2):
            # rho^t: F^t -> M^t, projection onto the middle block
            proj = linalg.zeros(m_dims[t], f_dims[t])
            for i in range(m_dims[t]):
                proj[i][i] = Fraction(1)
            rho[t] = induced_map(HF[t], HM[t], proj)
            # pi^t: M^t -> C^t
            pi[t] = induced_map(HM[t], HC[t], self.u_at(t, d))
            # delta^t: C^t -> F^(t+1), c |-> (0, c)
            incl = linalg.zeros(f_dims[t + 1], h_dims[t])
            offset = f_dims[t + 1] - h_dims[t]
            for i in range(h_dims[t]):
                incl[offset + i][i] = Fraction(1)
            delta[t] = induced_map(HC[t], HF[t + 1], incl)
        return {"HF": HF, "HM": HM, "HC": HC, "rho": rho, "pi": pi, "delta": delta}

    def fibre_matches_sum_cech(self, d) -> bool:
        """Oracle: H^t(F)_d equals the two-generator Cech cohomology of
        (f, g) at d, for every t."""
        f_dims, f_diffs = self.fibre_at(d)
        for t in range(3):
            hf = linalg.cohomology_dim(f_dims, f_diffs, t)
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

    # -- derivative actions --

    def _partial_on_cech(self, cech: PerDegreeCech, t: int, d, k: int):
        """d_k: C^t(cech)_d -> C^t(cech)_(d - e_k), the scalar d_k on each
        matching active subset."""
        d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
        src = cech.active_subsets(t, d)
        tgt = cech.active_subsets(t, d2)
        tgt_pos = {T: i for i, T in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, T in enumerate(src):
            i = tgt_pos.get(T)
            if i is not None:
                mat[i][j] = Fraction(d[k])
        return mat

    def _partial_on_fibre(self, t, d, k):
        """d_k on F^t = C^t(f) (+) C^t(g) (+) C^(t-1)(h), block by block."""
        d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
        parts = [(c, t) for c in (self.cf, self.cg) if t <= 1]
        if t >= 1:
            parts.append((self.ch, t - 1))
        blocks = [[self._partial_on_cech(c, s, d, k) if i == j else None
                   for j, (c, s) in enumerate(parts)] for i in range(len(parts))]
        return linalg.block_matrix(blocks, [c.level_dim(s, d2) for c, s in parts],
                                   [c.level_dim(s, d) for c, s in parts])

    def delta_commutes_with_partials(self, d) -> bool:
        """delta o d_k = d_k o delta on the materialized cohomology square
        at degrees d and d - e_k, for every variable k and both levels."""
        seq_d = self.sequence_at(d)
        for k in range(self.nvars):
            d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
            seq_d2 = self.sequence_at(d2)
            for t in range(2):
                # H^t(C)_d --delta--> H^(t+1)(F)_d
                #    |d_k                  |d_k
                # H^t(C)_d2 --delta--> H^(t+1)(F)_d2
                pk_c = induced_map(seq_d["HC"][t], seq_d2["HC"][t],
                                   self._partial_on_cech(self.ch, t, d, k))
                pk_f = induced_map(seq_d["HF"][t + 1], seq_d2["HF"][t + 1],
                                   self._partial_on_fibre(t + 1, d, k))
                lhs = linalg.mat_mul(seq_d2["delta"][t], pk_c)
                rhs = linalg.mat_mul(pk_f, seq_d["delta"][t])
                rows = seq_d2["HF"][t + 1].h_dim
                cols = seq_d["HC"][t].h_dim
                if _pad(lhs, rows, cols) != _pad(rhs, rows, cols):
                    return False
        return True


def _negated(m):
    return [[-x for x in row] for row in m]


def old_mv_connecting_biprincipal(f: tuple[int, ...], g: tuple[int, ...],
                              window: list[tuple[int, int]],
                              nvars: int | None = None) -> dict:
    """Build the fibre complex for I = (f), J = (g) and verify, per degree:
    the fibre-vs-Cech oracle, exactness of the long sequence, and the
    commutation of the connecting map with every partial derivative
    (inner degrees only; the boundary shell is reported as skipped)."""
    n = nvars if nvars is not None else len(window)
    if any(hi < lo + 1 for lo, hi in window):
        raise WindowMarginError(
            "window needs at least two degrees per variable for the "
            "derivative squares"
        )
    mv = PerDegreeMV(f, g, n)
    oracle_ok = True
    exact_ok = True
    dlin_ok = True
    skipped = []
    degrees = list(window_degrees(window))
    inner = set()
    for d in degrees:
        if all(lo < x <= hi for x, (lo, hi) in zip(d, window)):
            inner.add(d)
    for d in degrees:
        if not mv.fibre_matches_sum_cech(d):
            oracle_ok = False
        if not mv.exact_at(d):
            exact_ok = False
        if d in inner:
            if not mv.delta_commutes_with_partials(d):
                dlin_ok = False
        else:
            skipped.append(d)
    return {
        "h_oracle_matches": oracle_ok,
        "long_sequence_exact": exact_ok,
        "delta_d_linear": dlin_ok,
        "boundary_degrees_skipped": len(skipped),
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

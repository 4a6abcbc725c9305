"""Koszul complexes, regular sequences, and graded Ext^1 against hull models.

The right-module convention treats elements of the degree-k term as rows,
so its matrices are the transposes of the usual column-convention ones.
Exterior-algebra bases are ordered lexicographically on index subsets with
signs by position parity; with that choice the inductive block construction
of the degree-2 map reproduces the exterior one on the nose, and the
matching permutation/sign data is still computed and returned.

Local conditions at a prime P are never materialized as localizations:
membership of f in an ideal L "locally at P" is the colon statement
(L : f) not contained in P.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import linalg
from .groebner import (
    Ideal,
    ideal_power,
    ideal_sum,
    quotient_by_element,
)
from .poly import SparsePoly


class SearchExhaustedError(RuntimeError):
    """Randomized prime-avoidance search ran out of trials."""


class WindowMarginError(ValueError):
    """A degree window is empty or too small for the needed degree shifts."""


class NotFiniteDimensionalError(ValueError):
    """A graded piece of the model is not finite-dimensional."""


# ---------- exterior-algebra differentials ----------

def _subsets(g: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(g), k))


def koszul_matrix(a: list[SparsePoly], k: int, convention: str = "right") -> list[list[SparsePoly]]:
    """Degree-k differential of the Koszul complex on a_1..a_g.

    Column convention ("left"): rows indexed by (k-1)-subsets, columns by
    k-subsets, acting on column vectors.  Row convention ("right"): the
    transpose, acting on row vectors from the right.
    """
    g = len(a)
    if not 1 <= k <= g:
        raise ValueError(f"degree k={k} out of range 1..{g}")
    if convention not in ("left", "right"):
        raise ValueError("convention must be 'left' or 'right'")
    vars_ = a[0].vars
    zero = SparsePoly.zero(vars_)
    rows_idx = _subsets(g, k - 1)
    cols_idx = _subsets(g, k)
    row_pos = {s: i for i, s in enumerate(rows_idx)}
    mat = [[zero for _ in cols_idx] for _ in rows_idx]
    for j, T in enumerate(cols_idx):
        for pos, elem in enumerate(T):
            S = tuple(t for t in T if t != elem)
            sign = -1 if pos % 2 else 1
            entry = a[elem] if sign == 1 else -a[elem]
            mat[row_pos[S]][j] = mat[row_pos[S]][j] + entry
    if convention == "right":
        return [list(r) for r in zip(*mat)]
    return mat


class KoszulComplex:
    """The Koszul complex on a list of ring elements, in either convention."""

    def __init__(self, elements: list[SparsePoly], convention: str = "right"):
        if not elements:
            raise ValueError("need at least one element")
        vars_ = elements[0].vars
        for e in elements:
            if e.vars != vars_:
                raise ValueError("elements over different rings")
        self.elements = list(elements)
        self.convention = convention
        self._matrices: dict[int, list[list[SparsePoly]]] = {}

    @property
    def length(self) -> int:
        return len(self.elements)

    def matrix(self, k: int) -> list[list[SparsePoly]]:
        if k not in self._matrices:
            self._matrices[k] = koszul_matrix(self.elements, k, self.convention)
        return self._matrices[k]

    def composes_to_zero(self) -> bool:
        """d o d = 0 symbolically in every pair of consecutive degrees."""
        zero = SparsePoly.zero(self.elements[0].vars)
        for k in range(2, self.length + 1):
            if self.convention == "left":
                prod = _poly_mat_mul(self.matrix(k - 1), self.matrix(k))
            else:
                prod = _poly_mat_mul(self.matrix(k), self.matrix(k - 1))
            if any(entry != zero for row in prod for entry in row):
                return False
        return True


def _poly_mat_mul(a, b):
    if not a or not b:
        return []
    vars_ = next(e for row in a for e in row).vars
    zero = SparsePoly.zero(vars_)
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = zero
            for t in range(len(b)):
                acc = acc + row[t] * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def build_psi_inductive(a: list[SparsePoly], r: int | None = None):
    """The degree-2 map in row convention, assembled by the block recursion:
    a first band pairing a_1 against a_2..a_r over the same map for the tail.

    Returns (matrix, permutation, signs) where permutation[i] is the row of
    the exterior-algebra construction matching inductive row i up to
    signs[i].
    """
    if r is None:
        r = len(a)
    if r < 2:
        raise ValueError("need at least two elements")
    a = a[:r]
    vars_ = a[0].vars
    zero = SparsePoly.zero(vars_)

    def build(seq):
        n = len(seq)
        if n == 2:
            return [[-seq[1], seq[0]]]
        rows = []
        for j in range(1, n):
            row = [zero] * n
            row[0] = -seq[j]
            row[j] = seq[0]
            rows.append(row)
        for sub in build(seq[1:]):
            rows.append([zero] + sub)
        return rows

    mat = build(a)
    exterior = koszul_matrix(a, 2, "right")
    permutation, signs = _match_rows(mat, exterior)
    return mat, permutation, signs


def _match_rows(mat, reference):
    used = set()
    permutation = []
    signs = []
    for row in mat:
        found = None
        for j, ref in enumerate(reference):
            if j in used:
                continue
            if all(x == y for x, y in zip(row, ref)):
                found, sgn = j, 1
                break
            if all(x == -y for x, y in zip(row, ref)):
                found, sgn = j, -1
                break
        if found is None:
            raise RuntimeError("inductive block row matches no exterior row")
        used.add(found)
        permutation.append(found)
        signs.append(sgn)
    return permutation, signs


def psi_w_check(a: list[SparsePoly], e: list[SparsePoly]) -> bool:
    """With phi = multiplication by the fixed vector e, check that the
    degree-2 row-convention map annihilates w = [phi(a_1),...,phi(a_g)]^tr.
    Every entry expands to combinations of a_i*(a_j e) - a_j*(a_i e)."""
    psi = koszul_matrix(a, 2, "right")
    w = [[ai * ej for ej in e] for ai in a]
    zero = SparsePoly.zero(a[0].vars)
    for row in psi:
        acc = [zero] * len(e)
        for coeff, vec in zip(row, w):
            acc = [s + coeff * v for s, v in zip(acc, vec)]
        if any(not entry.is_zero() for entry in acc):
            return False
    return True


# ---------- regular sequences ----------

def is_regular_sequence(a: list[SparsePoly], variables=None) -> tuple[bool, SparsePoly | None]:
    """Colon-ideal test over the polynomial ring itself.

    True iff (a_1..a_{i-1}) : a_i = (a_1..a_{i-1}) for every i and the full
    ideal is proper.  On failure the witness is an element of the colon
    ideal outside the base ideal (or the offending zero/unit situation).
    """
    if not a:
        raise ValueError("empty sequence")
    vars_ = variables if variables is not None else a[0].vars
    one = SparsePoly.one(vars_)
    for i, ai in enumerate(a):
        if ai.is_zero():
            return False, one
        prefix = Ideal(vars_, list(a[:i]))
        if i == 0:
            continue  # nonzero elements are regular on a domain
        colon = quotient_by_element(prefix, ai)
        for gen in colon.groebner_basis():
            if not prefix.contains(gen):
                return False, gen
    full = Ideal(vars_, list(a))
    if full.contains_one():
        return False, one
    return True, None


def symbolic_power2_member(f: SparsePoly, P: Ideal) -> bool:
    """f in P^(2) = P^2 R_P cap R, decided as (P^2 : f) not contained in P.

    P is assumed prime by the caller.
    """
    P2 = ideal_power(P, 2)
    colon = quotient_by_element(P2, f)
    return not all(P.contains(g) for g in colon.groebner_basis())


def member_locally(f: SparsePoly, L: Ideal, P: Ideal) -> bool:
    """f in L R_P cap R, i.e. (L : f) not contained in P."""
    if L.is_zero():
        return f.is_zero()
    colon = quotient_by_element(L, f)
    return not all(P.contains(g) for g in colon.groebner_basis())


def prime_avoidance_sequence(P: Ideal, g: int, seed: int = 0,
                             trials: int = 200, coeff_bound: int = 5):
    """A regular sequence x_1..x_g in P whose images are part of a minimal
    generating set of P R_P.

    Candidates are random small-integer combinations of the generators of P
    (caller asserts primality and height >= g); every accepted element is
    verified deterministically: x_i must avoid (x_1..x_{i-1}) + P^2 locally
    at P, and the accumulated sequence must pass the colon-ideal regularity
    test.  Returns (sequence, trial_indices).
    """
    rng = random.Random(seed)
    gens = P.generators
    if not gens:
        raise ValueError("P must be nonzero")
    chosen: list[SparsePoly] = []
    trial_log = []
    for i in range(g):
        shifted = ideal_sum(Ideal(P.vars, chosen), ideal_power(P, 2))
        found = None
        for t in range(trials):
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in gens]
            if all(c == 0 for c in coeffs):
                continue
            x = SparsePoly.zero(P.vars)
            for c, gen in zip(coeffs, gens):
                x = x + c * gen
            if x.is_zero():
                continue
            if member_locally(x, shifted, P):
                continue
            ok, _ = is_regular_sequence(chosen + [x], P.vars)
            if not ok:
                continue
            found = x
            trial_log.append(t)
            break
        if found is None:
            raise SearchExhaustedError(
                f"no candidate for position {i + 1} within {trials} trials"
            )
        chosen.append(found)
    return chosen, trial_log


# ---------- graded module models and Ext^1 ----------

def negative_support(d) -> frozenset[int]:
    """N(d) = {j : d_j < 0}.  Whether a monomial module is nonzero at d is
    a condition on this set, so there are at most 2^n cases."""
    return frozenset(j for j, x in enumerate(d) if x < 0)


class GradedModuleModel:
    """A Z^n-graded module whose multidegree-d pieces have dimension 0 or 1,
    cut out by a per-variable sign pattern: the piece at d is nonzero iff
    the '-' positions of the pattern are exactly N(d) = negative_support(d)
    ('+' means the coordinate is >= 0, '-' that it is <= -1).
    Multiplication by a variable shifts the multidegree and truncates
    outside the region.

    The all-'+' pattern is the polynomial ring; the all-'-' pattern is the
    top local cohomology of the maximal monomial ideal, which for one
    variable is K[x, 1/x]/K[x].
    """

    def __init__(self, variables, pattern: str):
        self.vars = tuple(variables)
        if len(pattern) != len(self.vars) or any(c not in "+-" for c in pattern):
            raise ValueError("pattern must be one '+'/'-' per variable")
        self.pattern = pattern
        self._negative = frozenset(j for j, c in enumerate(pattern) if c == "-")

    @classmethod
    def polynomial(cls, variables) -> "GradedModuleModel":
        return cls(variables, "+" * len(tuple(variables)))

    @classmethod
    def top_local_cohomology(cls, variables) -> "GradedModuleModel":
        return cls(variables, "-" * len(tuple(variables)))

    def contains(self, d: tuple[int, ...]) -> bool:
        return negative_support(d) == self._negative

    def basis_of_total_degree(self, t: int) -> list[tuple[int, ...]]:
        """Multidegrees in the region with coordinate sum t (finite for
        pure-sign patterns)."""
        n = len(self.vars)
        if len(set(self.pattern)) > 1:
            raise NotFiniteDimensionalError(
                "mixed sign patterns have infinite total-degree pieces"
            )
        if self.pattern[0] == "+":
            if t < 0:
                return []
            return [e for e in _compositions(t, n)]
        # all '-': substitute e_i = -1 - f_i with f_i >= 0
        s = -t - n
        if s < 0:
            return []
        return [tuple(-1 - f for f in e) for e in _compositions(s, n)]

    def structure_maps_commute(self, degrees: list[tuple[int, ...]]) -> bool:
        """x_i then x_j equals x_j then x_i on the given pieces (scalar 0/1
        maps here, so this checks region-truncation consistency)."""
        for d in degrees:
            if not self.contains(d):
                continue
            for i in range(len(self.vars)):
                for j in range(len(self.vars)):
                    via_ij = self._shift_ok(self._shift(d, i), j) and self._shift_ok(d, i)
                    via_ji = self._shift_ok(self._shift(d, j), i) and self._shift_ok(d, j)
                    target = tuple(
                        x + (1 if k in (i, j) else 0) + (1 if i == j == k else 0)
                        for k, x in enumerate(d)
                    )
                    if self.contains(target) and via_ij != via_ji:
                        return False
        return True

    def _shift(self, d, i):
        return tuple(x + (1 if k == i else 0) for k, x in enumerate(d))

    def _shift_ok(self, d, i):
        return self.contains(self._shift(d, i))

    def mult_matrix(self, p: SparsePoly, source_degree: int):
        """Matrix of multiplication by the homogeneous polynomial p from the
        total-degree piece at source_degree to the shifted piece."""
        if p.vars != self.vars:
            raise ValueError("polynomial over the wrong ring")
        if not p.is_homogeneous():
            raise ValueError("multiplier must be homogeneous")
        shift = p.total_degree()
        src = self.basis_of_total_degree(source_degree)
        tgt = self.basis_of_total_degree(source_degree + shift)
        tgt_pos = {m: i for i, m in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, m in enumerate(src):
            for e, c in p.terms.items():
                out = tuple(x + y for x, y in zip(m, e))
                i = tgt_pos.get(out)
                if i is not None:
                    mat[i][j] += c
        return mat


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def ext1_koszul(a: list[SparsePoly], model: GradedModuleModel,
                window: tuple[int, int]) -> dict[int, int]:
    """Per-total-degree dimensions of Ext^1(R/(a), E) for the model E.

    Computed as the degree-d cohomology of the Hom-Koszul cochain complex
      E_d -> (+)_i E_{d + deg a_i} -> (+)_{i<j} E_{d + deg a_i + deg a_j}
    by exact rank arithmetic.  Region pieces are enumerated exactly, so the
    shifted pieces carry no boundary error for any window.
    """
    _check_sequence(a, window)
    if a[0].vars != model.vars:
        raise ValueError("sequence over the wrong ring")
    return _level_one_window(a, model, window, "right")


def koszul_h1_window(a: list[SparsePoly], window: tuple[int, int]) -> dict[int, int]:
    """Graded pieces of the first Koszul homology H_1(K(a; R)) for a
    homogeneous sequence, as exact dimensions per total degree."""
    _check_sequence(a, window)
    return _level_one_window(a, GradedModuleModel.polynomial(a[0].vars), window, "left")


def _check_sequence(a: list[SparsePoly], window: tuple[int, int]) -> None:
    lo, hi = window
    if hi < lo:
        raise WindowMarginError("empty window")
    if not a:
        raise ValueError("need a nonempty sequence")
    for f in a:
        if f.vars != a[0].vars:
            raise ValueError("sequence entries over different rings")
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("sequence entries must be nonzero homogeneous")


def _level_one_window(a, model, window, convention):
    """Level-1 cohomology, degree by degree, of the Koszul complex on a
    expanded through the model's graded pieces.

    "right" gives the Hom-Koszul cochain complex, whose level-k piece at d
    is (+)_T E_{d + deg a_T} over k-subsets T; "left" gives K(a; R), whose
    piece is (+)_T R_{d - deg a_T}.  Each polynomial entry p of the Koszul
    matrix becomes multiplication by p out of the piece of its column
    subset.  A one-element sequence has no level 2.
    """
    sign = 1 if convention == "right" else -1
    degs = [f.total_degree() for f in a]
    levels = range(min(len(a), 2) + 1)
    subsets = [_subsets(len(a), k) for k in levels]
    mats = [koszul_matrix(a, k, convention) for k in levels[1:]]
    out = {}
    for d in range(window[0], window[1] + 1):
        piece = {T: d + sign * sum(degs[i] for i in T) for subs in subsets for T in subs}
        dims = [[len(model.basis_of_total_degree(piece[T])) for T in subs] for subs in subsets]
        diffs = []
        for k, mat in enumerate(mats, start=1):
            tgt, src = (k, k - 1) if convention == "right" else (k - 1, k)
            blocks = [[None if p.is_zero() else model.mult_matrix(p, piece[subsets[src][j]])
                       for j, p in enumerate(row)] for row in mat]
            diffs.append(linalg.block_matrix(blocks, dims[tgt], dims[src]))
        out[d] = linalg.cohomology_dim([sum(ds) for ds in dims], diffs, 1)
    return out

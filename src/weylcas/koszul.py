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
from functools import lru_cache
from itertools import accumulate, combinations
from operator import add

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
    """A degree window is empty."""


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
            mat[row_pos[T[:pos] + T[pos + 1:]]][j] = -a[elem] if pos % 2 else a[elem]
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

    def matrix(self, k: int) -> list[list[SparsePoly]]:
        if k not in self._matrices:
            self._matrices[k] = koszul_matrix(self.elements, k, self.convention)
        return self._matrices[k]

    def composes_to_zero(self) -> bool:
        """d o d = 0 symbolically in every pair of consecutive degrees."""
        zero = SparsePoly.zero(self.elements[0].vars)
        for k in range(2, len(self.elements) + 1):
            first, second = (k - 1, k) if self.convention == "left" else (k, k - 1)
            columns = list(zip(*self.matrix(second)))
            for row in self.matrix(first):
                for col in columns:
                    if not sum((x * y for x, y in zip(row, col)), zero).is_zero():
                        return False
        return True


def build_psi_inductive(a: list[SparsePoly]):
    """The degree-2 map in row convention, assembled by the block recursion:
    a first band pairing a_1 against a_2..a_r over the same map for the tail.

    Returns (matrix, permutation, signs) where permutation[i] is the row of
    the exterior-algebra construction matching inductive row i up to
    signs[i].
    """
    if len(a) < 2:
        raise ValueError("need at least two elements")
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

def is_regular_sequence(a: list[SparsePoly]) -> tuple[bool, SparsePoly | None]:
    """Colon-ideal test over the polynomial ring itself.

    True iff (a_1..a_{i-1}) : a_i = (a_1..a_{i-1}) for every i and the full
    ideal is proper.  On failure the witness is an element of the colon
    ideal outside the base ideal (or the offending zero/unit situation).
    """
    if not a:
        raise ValueError("empty sequence")
    vars_ = a[0].vars
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


def member_locally(f: SparsePoly, L: Ideal, P: Ideal) -> bool:
    """f in L R_P cap R, i.e. (L : f) not contained in P."""
    if L.is_zero():
        return f.is_zero()
    colon = quotient_by_element(L, f)
    return not all(P.contains(g) for g in colon.groebner_basis())


# random candidates tried for each position of the sequence
AVOIDANCE_TRIALS = 200


def prime_avoidance_sequence(P: Ideal, g: int, seed: int = 0):
    """A regular sequence x_1..x_g in P whose images are part of a minimal
    generating set of P R_P.

    Candidates are random combinations of the generators of P with
    coefficients in -5..5, at most AVOIDANCE_TRIALS per position (caller
    asserts primality and height >= g); every accepted element is
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
        for t in range(AVOIDANCE_TRIALS):
            coeffs = [rng.randint(-5, 5) for _ in gens]
            if all(c == 0 for c in coeffs):
                continue
            x = SparsePoly.zero(P.vars)
            for c, gen in zip(coeffs, gens):
                x = x + c * gen
            if x.is_zero():
                continue
            if member_locally(x, shifted, P):
                continue
            ok, _ = is_regular_sequence(chosen + [x])
            if not ok:
                continue
            found = x
            trial_log.append(t)
            break
        if found is None:
            raise SearchExhaustedError(
                f"no candidate for position {i + 1} within {AVOIDANCE_TRIALS} trials"
            )
        chosen.append(found)
    return chosen, trial_log


# ---------- graded module models and Ext^1 ----------

class GradedModuleModel:
    """One of two Z^n-graded modules whose multidegree-d pieces have
    dimension 0 or 1: the polynomial ring R, nonzero exactly at d >= 0,
    and the top local cohomology H^n_m(R) of the maximal monomial ideal,
    nonzero exactly at d <= -1 (for one variable, K[x, 1/x]/K[x]).
    Multiplication by a monomial x^e sends the basis element of multidegree
    m to that of m + e, or to 0 outside the region, so the pieces are the
    whole model: `piece(t)` lists the basis of total degree t with each
    multidegree's position in it, and `_level_one_window` writes the
    Koszul differentials straight from those positions."""

    def __init__(self, variables, top: bool):
        self.vars = tuple(variables)
        self._top = top
        self._pieces: dict[int, tuple[list, dict]] = {}  # t -> (basis, position)

    @classmethod
    def polynomial(cls, variables) -> "GradedModuleModel":
        return cls(variables, False)

    @classmethod
    def top_local_cohomology(cls, variables) -> "GradedModuleModel":
        return cls(variables, True)

    def piece(self, t: int) -> tuple[list, dict]:
        """The multidegrees in the region with coordinate sum t and each
        one's position in that list, built once per model and t; both are
        shared, so callers must not change them."""
        piece = self._pieces.get(t)
        if piece is None:
            n = len(self.vars)
            if not self._top:
                basis = list(_compositions(t, n)) if t >= 0 else []
            else:
                # substitute e_i = -1 - f_i with f_i >= 0
                s = -t - n
                basis = [tuple(-1 - f for f in e) for e in _compositions(s, n)] if s >= 0 else []
            piece = self._pieces[t] = (basis, {m: i for i, m in enumerate(basis)})
        return piece


@lru_cache(maxsize=256)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """The `parts`-tuples summing to `total`, first entry slowest; shared."""
    if parts == 1:
        return ((total,),)
    return tuple([(first,) + rest for first in range(total + 1)
                  for rest in _compositions(total - first, parts - 1)])


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
    piece is (+)_T R_{d - deg a_T}.  Each nonzero entry p of the Koszul
    matrix is multiplication by p from the piece of its block column into
    that of its block row: a term c x^e of p puts c at the row of m + e
    and the column of m, for each basis element m of the source piece
    whose shift stays in the region.  Scaling each a_i by a nonzero
    constant gives an isomorphic complex, so each a_i is first cleared of
    denominators and every differential is ranked as integer rows.  A
    one-element sequence has no level 2.
    """
    sign = 1 if convention == "right" else -1
    degs = [f.total_degree() for f in a]
    a = [SparsePoly(f.vars, dict(zip(f.terms, linalg.integer_vector(list(f.terms.values()))[0])))
         for f in a]
    levels = range(min(len(a), 2) + 1)
    subsets = [_subsets(len(a), k) for k in levels]
    # per differential: its target and source levels and, for each nonzero
    # entry, the block row, the block column and the entry's terms
    diffs = [((k, k - 1) if convention == "right" else (k - 1, k),
              [(i, j, list(p.terms.items()))
               for i, row in enumerate(koszul_matrix(a, k, convention))
               for j, p in enumerate(row) if not p.is_zero()])
             for k in levels[1:]]
    out = {}
    for d in range(window[0], window[1] + 1):
        pieces = [[model.piece(d + sign * sum(degs[i] for i in T)) for T in subs]
                  for subs in subsets]
        starts = [list(accumulate((len(basis) for basis, _ in level), initial=0))
                  for level in pieces]
        ranks = []
        for (tgt, src), entries in diffs:
            row_at, col_at = starts[tgt], starts[src]
            rows = linalg.zeros(row_at[-1], col_at[-1])
            for i, j, terms in entries:
                basis, pos = pieces[src][j][0], pieces[tgt][i][1]
                for e, c in terms:
                    for col, m in enumerate(basis, col_at[j]):
                        r = pos.get(tuple(map(add, m, e)))
                        if r is not None:
                            rows[row_at[i] + r][col] = c
            ranks.append(linalg.integer_rank(rows))
        out[d] = linalg.cohomology_dim([level[-1] for level in starts], ranks, 1)
    return out

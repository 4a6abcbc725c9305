"""Exact linear algebra over Q: row reduction, ranks, kernels, solving,
block assembly and the cohomology of finite complexes.

Matrices are lists of rows of Fractions and act on column vectors.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    zero = Fraction(0)
    return [[zero] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def block_matrix(blocks: list[list[Matrix | None]], row_dims: list[int],
                 col_dims: list[int]) -> Matrix:
    """The matrix with blocks[i][j] at block row i and block column j.

    None stands for a zero block.  Every other block must be
    row_dims[i] x col_dims[j]; a block with no rows is [] whatever its width.
    A grid or block of the wrong shape raises ValueError.
    """
    out = zeros(sum(row_dims), sum(col_dims))
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra == 0:
        return []
    if ca == 0 or rb == 0 or cb == 0:
        # a composition factoring through a zero-dimensional space
        return zeros(ra, cb)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    support = [(j, x) for j, x in enumerate(v) if x != 0]
    return [sum((row[j] * x for j, x in support), Fraction(0)) for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_pow(a: Matrix, k: int) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix must be square")
    result = identity(n)
    base = copy(a)
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy(a)
    rows, cols = shape(m)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
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


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def cohomology_dim(dims: list[int], diffs: list[Matrix], t: int) -> int:
    """Dimension of the homology at level t of a finite complex.

    dims[t] is the dimension of level t and diffs[t] the map between levels
    t and t + 1, in either direction (only its rank counts), so chain and
    cochain complexes both fit.  A level past the last map is an end of the
    complex.
    """
    if not dims[t]:
        return 0
    out_rank = rank(diffs[t]) if t < len(diffs) else 0
    in_rank = rank(diffs[t - 1]) if t >= 1 else 0
    return dims[t] - out_rank - in_rank


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {v : a v = 0}, one vector per free column."""
    rows, cols = shape(a)
    if cols == 0:
        return []
    if rows == 0:
        return [unit_vector(cols, i) for i in range(cols)]
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def unit_vector(n: int, i: int) -> Vector:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b (free variables set to 0), or None."""
    rows, cols = shape(a)
    aug = [a[i][:] + [Fraction(b[i])] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def mat_inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix must be square")
    if n == 0:
        return []
    aug = [a[i][:] + unit_vector(n, i) for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def columns(a: Matrix) -> list[Vector]:
    return transpose(a)


def from_columns(cols: list[Vector]) -> Matrix:
    if not cols:
        return []
    return transpose(cols)


def column_space_contains(basis_cols: list[Vector], v: Vector) -> bool:
    if all(x == 0 for x in v):
        return True
    if not basis_cols:
        return False
    return solve(from_columns(basis_cols), v) is not None


def independent_columns(cols: list[Vector]) -> list[Vector]:
    """A maximal linearly independent subset, in order."""
    out: list[Vector] = []
    for v in cols:
        if not column_space_contains(out, v):
            out.append(v)
    return out


def subspace_le(u_cols: list[Vector], v_cols: list[Vector]) -> bool:
    """span(u) <= span(v)?"""
    return all(column_space_contains(v_cols, u) for u in u_cols)


def subspace_equal(u_cols: list[Vector], v_cols: list[Vector]) -> bool:
    return subspace_le(u_cols, v_cols) and subspace_le(v_cols, u_cols)


def intersect_kernels(mats: list[Matrix], dim: int) -> list[Vector]:
    """Basis of the common kernel of the given matrices on Q^dim."""
    stacked: Matrix = []
    for m in mats:
        stacked.extend(m)
    if not stacked:
        return [unit_vector(dim, i) for i in range(dim)]
    return nullspace(stacked)


def poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a dense univariate polynomial at a square matrix (Horner)."""
    n, _ = shape(a)
    out = zeros(n, n)
    for c in reversed(list(coeffs)):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


class ColumnSolver:
    """Repeated solving of B c = w for a fixed full-column-rank-or-not B."""

    def __init__(self, b_columns: list[Vector]):
        self.cols = len(b_columns)
        self.rows = len(b_columns[0]) if b_columns else 0
        b = from_columns(b_columns) if b_columns else []
        aug = [b[i][:] + unit_vector(self.rows, i) for i in range(self.rows)]
        r, pivots = rref(aug)
        self.pivots = [p for p in pivots if p < self.cols]
        self.red = [row[: self.cols] for row in r]
        self.ops = [row[self.cols:] for row in r]
        self.rank = len(self.pivots)

    def solve(self, w: Vector) -> Vector | None:
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
        self.reduced: list[Vector] = []
        self.combos: list[Vector] = []  # coefficients over the power basis

    def reduce(self, v: Vector, combo: Vector) -> tuple[Vector, Vector]:
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

    def insert(self, v: Vector, combo: Vector) -> bool:
        """Returns False (and records) if independent, True if v reduced to 0."""
        v, combo = self.reduce(v, combo)
        pivot = next((i for i in range(self.n) if v[i] != 0), None)
        if pivot is None:
            self.relation = combo
            return True
        inv = 1 / v[pivot]
        self.reduced.append([x * inv for x in v])
        self.combos.append([x * inv for x in combo])
        self.pivot_of[pivot] = len(self.reduced) - 1
        return False


def minimal_polynomial_of_vector(a: Matrix, v: Vector) -> list[Fraction]:
    n = len(v)
    red = KrylovReducer(n)
    w = v[:]
    k = 0
    while True:
        combo = [Fraction(0)] * k + [Fraction(1)]
        if red.insert(w, combo):
            rel = red.relation
            lead = rel[-1]
            return [c / lead for c in rel]
        w = mat_vec(a, w)
        k += 1


def minimal_polynomial(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, as dense coefficients."""
    from . import univar

    n, m = shape(a)
    if n != m:
        raise ValueError("matrix must be square")
    if n == 0:
        return [Fraction(1)]
    result: list[Fraction] = [Fraction(1)]
    for i in range(n):
        local = minimal_polynomial_of_vector(a, unit_vector(n, i))
        result = univar.lcm(result, local)
        if univar.deg(result) == n:
            break
    return result

"""Exact linear algebra over Q: row reduction, ranks, kernels, solving,
the cohomology of finite complexes, `Subspace`, linear combinations of
fixed matrices (`MatrixFamily`) and polynomials of a matrix on a vector.

Matrices are lists of rows of exact rationals and act on column vectors;
`transpose` turns a list of columns into a matrix and back.  Every entry
returned is stored as a `SparsePoly` coefficient is: an int when integral,
else a Fraction.  All arithmetic runs on Python ints.  Inside the library
a rational matrix travels scaled, as integer rows m over one denominator d
(`integer_matrix`, `MatrixFamily.combine`, `integer_columns`), and the
kernels take integer rows as they are: products of integer rows are
integer rows, `rref`, `rank`, `nullspace` and `Subspace` do not depend on
d, and `mat_vec`, `annihilator` and `poly_apply` take d as an argument.
Fractions are built only where a value leaves the library
(`fraction_vector`, `fraction_matrix`).  `rref`, `rank` and `nullspace`
share one fraction-free echelon routine: it eliminates by
cross-multiplication and keeps every row primitive (`primitive_rows`), as
`Subspace` keeps its rows.  A ragged matrix, operands whose shapes do not
fit, or a negative power raise ValueError.

A `Subspace` keeps a growing span in a canonical echelon form and answers
every span question asked of a set of vectors: membership, equality, and
coordinates over the accepted vectors and projection modulo the span, both
as (integer numerators, denominator), the scale unique only up to value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .poly import exact_ratio

Matrix = list  # list[list[int | Fraction]]
Vector = list  # list[int | Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def _width(a: Matrix) -> int:
    """The common length of the rows of a; a ragged matrix raises ValueError."""
    cols = len(a[0]) if a else 0
    for row in a:
        if len(row) != cols:
            raise ValueError(f"ragged matrix: a row of length {len(row)} after one of length {cols}")
    return cols


def integer_vector(v: Vector) -> tuple[list[int], int]:
    """v (int or Fraction entries) as integer numerators over the lcm of its
    denominators, and that lcm.  The numerators are always a new list."""
    if set(map(type, v)) <= {int}:
        return list(v), 1
    den = lcm(*[x.denominator for x in v])
    if den == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (den // x.denominator) for x in v], den


def integer_matrix(a: Matrix) -> tuple[list[list[int]], int]:
    """a (int or Fraction entries) as integer rows over one common
    denominator, and that denominator; a matrix of ints comes back as is."""
    if set(map(type, chain.from_iterable(a))) <= {int}:
        return a, 1
    den = lcm(*[x.denominator for row in a for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def fraction_vector(nums: list[int], den: int) -> Vector:
    """The exact entries nums[i] / den, as a new list: their gcd with den is
    divided out once, so a den that divides them all builds no Fraction."""
    if den == 1:
        return list(nums)
    g = gcd(den, *nums)
    if g == abs(den):
        return [x // den for x in nums]
    return [exact_ratio(x // g, den // g) for x in nums]


def fraction_matrix(rows: list[list[int]], den: int) -> Matrix:
    """The exact matrix rows / den, as new rows."""
    return [fraction_vector(row, den) for row in rows]


def integer_columns(cols, den: int) -> tuple[list[list[int]], int]:
    """The matrix with column j nums_j / (d_j den), for the pairs (nums_j,
    d_j) in cols, as integer rows over their one denominator."""
    common = lcm(*[d for _, d in cols])
    return transpose([[x * (common // d) for x in nums] for nums, d in cols]), common * den


def transpose(a: Matrix) -> Matrix:
    """The transpose; a ragged matrix raises ValueError."""
    _width(a)
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), _width(a)
    rb, cb = len(b), _width(b)
    if ra == 0:
        return []
    if ca == 0 or rb == 0 or cb == 0:
        # a composition factoring through a zero-dimensional space
        return zeros(ra, cb)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} * {rb}x{cb}")
    # each row of the product combines the rows of b that its nonzero
    # entries pick, and only nonzero entries of those rows are multiplied
    (ma, da), (mb, db) = integer_matrix(a), integer_matrix(b)
    b_support = [[(k, y) for k, y in enumerate(row) if y] for row in mb]
    out = []
    for row in ma:
        acc = [0] * cb
        for x, support in zip(row, b_support):
            if x:
                for k, y in support:
                    acc[k] += x * y
        out.append(acc)
    return out if da * db == 1 else fraction_matrix(out, da * db)


def mat_vec(a: Matrix, v: Vector, den: int = 1) -> Vector:
    for row in a:
        if len(row) != len(v):
            raise ValueError(f"shape mismatch {len(a)}x{len(row)} * vector of length {len(v)}")
    m, d = integer_matrix(a)
    nums, den_v = integer_vector(v)
    return fraction_vector(_int_mat_vec(m, nums), d * den * den_v)


def _int_mat_vec(m: list[list[int]], w: list[int]) -> list[int]:
    support = [(j, x) for j, x in enumerate(w) if x]
    return [sum([row[j] * x for j, x in support]) for row in m]


def mat_pow(a: Matrix, k: int) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix must be square")
    if k < 0:
        raise ValueError(f"negative power {k}")
    result, base = identity(n), a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a zero row is kept)."""
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def primitive_rows(a: Matrix) -> list[list[int]]:
    """Each row of a (int or Fraction entries) scaled by the lcm of its
    denominators and made primitive.  A ragged matrix raises ValueError."""
    _width(a)
    return [_primitive(integer_vector(row)[0]) for row in a]


def _echelon(m: list[list[int]], reduced: bool) -> list[int]:
    """Row-reduce the primitive integer rows m in place; the pivot columns.

    A row meets the pivot row p by cross-multiplication, (p_c/g) row -
    (f/g) p with f the row's entry in the pivot column c and g =
    gcd(p_c, f), and is then made primitive again, so no Fraction is built
    and the entries stay small.  Afterwards the first len(pivots) rows are
    the pivot rows, in order, and the rest are zero.  With reduced, the
    rows are also cleared above each pivot: pivot row i is then its entry
    at pivots[i] times row i of the reduced row echelon form.  Rows are
    replaced, never changed in place, so m may hold the caller's rows.
    """
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        for i in range(0 if reduced else r + 1, rows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], pivot_row)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def echelon_rows(a: Matrix) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form of a as primitive
    integer rows positive at their pivots, and the pivot columns."""
    m = primitive_rows(a)
    pivots = _echelon(m, True)
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)], pivots


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.  A ragged
    matrix raises ValueError."""
    rows, pivots = echelon_rows(a)
    out = [fraction_vector(row, row[c]) for row, c in zip(rows, pivots)]
    out += [[0] * len(row) for row in a[len(pivots):]]
    return out, pivots


def rank(a: Matrix) -> int:
    """The rank of a; a ragged matrix raises ValueError."""
    return len(_echelon(primitive_rows(a), False))


def integer_rank(m: list[list[int]]) -> int:
    """The rank of the integer rows m, primitive or not; reduces m in place."""
    return len(_echelon(m, False))


def cohomology_dim(dims: list[int], ranks: list[int], t: int) -> int:
    """Dimension of the homology at level t of a finite complex.

    dims[t] is the dimension of level t and ranks[t] the rank of the map
    between levels t and t + 1, in either direction, so chain and cochain
    complexes both fit, and a caller that asks for every level ranks each
    map once.  A level past the last map is an end of the complex; a level
    outside dims raises ValueError.
    """
    if not 0 <= t < len(dims):
        raise ValueError(f"level {t} of a complex with levels 0..{len(dims) - 1}")
    if not dims[t]:
        return 0
    out_rank = ranks[t] if t < len(ranks) else 0
    in_rank = ranks[t - 1] if t >= 1 else 0
    return dims[t] - out_rank - in_rank


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {v : a v = 0}, one vector per free column.  A ragged
    matrix raises ValueError."""
    m = primitive_rows(a)
    cols = len(m[0]) if m else 0
    pivots = _echelon(m, True)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = unit_vector(cols, f)
        for row, p in zip(m, pivots):
            if row[f]:
                v[p] = exact_ratio(-row[f], row[p])
        basis.append(v)
    return basis


def unit_vector(n: int, i: int) -> Vector:
    v = [0] * n
    v[i] = 1
    return v


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b (free variables set to 0), or None."""
    rows, cols = shape(a)
    if len(b) != rows:
        raise ValueError(f"shape mismatch {rows}x{cols} matrix, vector of length {len(b)}")
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [0] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a dense univariate polynomial at a square matrix (Horner)."""
    n, _ = shape(a)
    out = zeros(n, n)
    for c in reversed(list(coeffs)):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def _combine(a: int, x: list[int], dx: int, b: int, y: list[int], dy: int, c: int = 1):
    """(a x / dx + b y / dy) / c, for integer vectors x and y, as integers
    over one denominator, in lowest terms."""
    d = lcm(dx, dy)
    a, b, d = a * (d // dx), b * (d // dy), d * c
    nums = [a * s + b * t for s, t in zip(x, y)]
    g = gcd(d, *nums)
    return ([s // g for s in nums], d // g) if g > 1 else (nums, d)


class Subspace:
    """A subspace of Q^n, grown one vector at a time.

    The rows are primitive integer vectors, each positive at its pivot (its
    first nonzero entry) and 0 at the other rows' pivots: the primitive
    positive multiples of the reduced row echelon form, unique for a span,
    so `==` compares rows and `project` does not depend on the order of the
    vectors.  Each row carries its combination over `basis`, the vectors
    `add` accepted, in order, as integers over one denominator.  A vector
    is reduced by cross-multiplication, as in `_echelon`.  A vector of the
    wrong length raises ValueError.
    """

    def __init__(self, n: int, vectors=()):
        self._n = n
        self.basis: list[Vector] = []
        self._rows: dict[int, list[int]] = {}  # pivot -> row
        self._combos: dict[int, tuple[list[int], int]] = {}  # pivot -> (numerators, den)
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, v: Vector, track: bool):
        """(r, e, w, d), integers with e v = r + sum_k w[k] / d basis[k]:
        r is 0 at every pivot, and w is kept only if track.  The rows are 0
        at each other's pivots, so one pass clears every pivot column."""
        if len(v) != self._n:
            raise ValueError(f"vector of length {len(v)} in a subspace of Q^{self._n}")
        r, e = integer_vector(v)
        w, d = [0] * len(self.basis), 1
        for p, row in self._rows.items():
            c = r[p]
            if c:
                g = gcd(row[p], c)
                a, b = row[p] // g, c // g
                r = [a * x - b * y for x, y in zip(r, row)]
                e *= a
                if track:
                    w, d = _combine(a, w, d, b, *self._combos[p])
        return r, e, w, d

    def add(self, v: Vector) -> bool:
        """Add v; True when it was not already in the span."""
        r, e, w, d = self._reduce(v, True)
        q = next((j for j, x in enumerate(r) if x), None)
        if q is None:
            return False
        g = gcd(*r) if r[q] > 0 else -gcd(*r)
        row = [x // g for x in r]
        combo = ([-x for x in w] + [e * d], d * g)
        for p, other in self._rows.items():
            self._combos[p][0].append(0)
            f = other[q]
            if f:
                h = gcd(row[q], f)
                reduced = [row[q] // h * x - f // h * y for x, y in zip(other, row)]
                c = gcd(*reduced)
                self._rows[p] = [x // c for x in reduced]
                self._combos[p] = _combine(row[q] // h, *self._combos[p], -f // h, *combo, c)
        self._rows[q] = row
        self._combos[q] = combo
        self.basis.append(list(v))
        return True

    def __contains__(self, v: Vector) -> bool:
        return not any(self._reduce(v, False)[0])

    def coords(self, v: Vector) -> tuple[list[int], int] | None:
        """The coordinates of v over basis as (integer numerators, positive
        denominator), or None when v is outside."""
        r, e, w, d = self._reduce(v, True)
        return None if any(r) else (w, d * e)

    def project(self, v: Vector) -> tuple[list[int], int]:
        """The non-pivot coordinates of v modulo the subspace, as (integer
        numerators, positive denominator)."""
        r, e, _, _ = self._reduce(v, False)
        return [x for j, x in enumerate(r) if j not in self._rows], e

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._n == other._n and self._rows == other._rows


class MatrixFamily:
    """The matrices A_i = m_i / d_i, given as pairs (m_i, d_i) of integer
    rows of one shape and a denominator, for their combinations sum_i c_i
    A_i.  Each A_i is held once, flat, over the lcm of the d_i, so a
    combination scales its coefficients once and adds ints.  An empty
    family combines to [].  Members of two shapes, or the wrong number of
    coefficients, raise ValueError."""

    def __init__(self, members):
        self._shape = shape(members[0][0]) if members else (0, 0)
        for m, _ in members:
            if (len(m), _width(m)) != self._shape:
                raise ValueError(f"a {shape(m)} matrix in a family of {self._shape} matrices")
        self._den = lcm(*[d for _, d in members])
        self._members = [list(chain.from_iterable(m)) if d == self._den else
                         [x * (self._den // d) for row in m for x in row] for m, d in members]

    def combine(self, coeffs) -> tuple[list[list[int]], int]:
        """sum_i coeffs[i] A_i in scaled form: integer rows over the
        denominator of the coefficients times the family's."""
        if len(coeffs) != len(self._members):
            raise ValueError(f"{len(coeffs)} coefficients for a family of {len(self._members)} matrices")
        nums, den = integer_vector(coeffs)
        rows, cols = self._shape
        acc = [0] * (rows * cols)
        for c, member in zip(nums, self._members):
            if c:
                acc = [x + c * y for x, y in zip(acc, member)]
        return [acc[i * cols:(i + 1) * cols] for i in range(rows)], den * self._den


def _acting(a: Matrix, v: Vector) -> tuple[list[list[int]], int]:
    """integer_matrix(a) for a square matrix a of v's size; else ValueError."""
    if len(a) != len(v) or _width(a) != len(v):
        raise ValueError(f"a {shape(a)} matrix acting on a vector of length {len(v)}")
    return integer_matrix(a)


def annihilator(a: Matrix, v: Vector, den: int = 1) -> list[Fraction]:
    """Monic generator of {p : p(a / den) v = 0}.  With a / den = m / d over
    the integers, the first u_k = m^k v in the span of the earlier ones,
    sum_i c_i u_i, gives p = t^k - sum_i c_i / d^(k - i) t^i."""
    m, d = _acting(a, v)
    d *= den
    krylov = Subspace(len(v))
    w = integer_vector(v)[0]
    while krylov.add(w):
        w = _int_mat_vec(m, w)
    nums, dc = krylov.coords(w)
    k = len(nums)
    return [exact_ratio(-c, dc * d ** (k - i)) for i, c in enumerate(nums)] + [1]


def poly_apply(coeffs, a: Matrix, v: Vector, den: int = 1) -> Vector:
    """p(a / den) v for p = coeffs (dense): with a / den = m / d, p = sum_i
    P_i / L t^i and v = V / dv over integers, Horner builds h = sum_i P_i
    d^(n - i) m^i V, n = deg p, and divides by L d^n dv."""
    m, d = _acting(a, v)
    d *= den
    nums, dv = integer_vector(v)
    cs, dc = integer_vector(coeffs)
    h, scale = [0] * len(nums), 1
    for i, c in enumerate(reversed(cs)):
        if i:
            scale *= d
        h = [x + c * scale * y for x, y in zip(_int_mat_vec(m, h), nums)]
    return fraction_vector(h, dc * scale * dv)


def minimal_polynomial(a: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, as dense coefficients."""
    from . import univar

    n, m = shape(a)
    if n != m:
        raise ValueError("matrix must be square")
    result = [1]
    for i in range(n):
        local = annihilator(a, unit_vector(n, i))
        result = univar.lcm(result, local)
        if univar.deg(result) == n:
            break
    return result

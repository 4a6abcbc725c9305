import math
import random
from fractions import Fraction

import pytest
from oracles import (
    OldColumnSolver,
    OldSubspace,
    _quotient_projection,
    block_matrix,
    exact_rule,
    old_column_space_contains,
    old_independent_columns,
    old_mat_mul,
    old_mat_vec,
    old_minimal_polynomial_of_vector,
    old_nullspace,
    old_poly_apply,
    old_rank,
    old_rref,
    old_solve,
    old_subspace_equal,
    subspace_coords,
)

from weylcas import linalg


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_block_matrix_places_blocks_and_zero_fills():
    a = F([[1, 2]])
    b = F([[3], [4]])
    out = block_matrix([[a, None], [None, b]], [1, 2], [2, 1])
    assert out == F([[1, 2, 0], [0, 0, 3], [0, 0, 4]])


def test_block_matrix_empty_blocks():
    # a block with no rows is [] whatever its width; one with no columns is
    # a list of empty rows
    out = block_matrix([[[[]], F([[5]])], [[[], []], None]], [1, 2], [0, 1])
    assert out == F([[5], [0], [0]])
    out = block_matrix([[[], []], [None, F([[7]])]], [0, 1], [2, 1])
    assert out == F([[0, 0, 7]])
    assert block_matrix([[[]]], [0], [3]) == []
    assert block_matrix([[None, None]], [2], [0, 0]) == [[], []]


def test_block_matrix_rejects_misshaped_block():
    with pytest.raises(ValueError, match="expected 1x2"):
        block_matrix([[F([[1, 2, 3]])]], [1], [2])
    with pytest.raises(ValueError, match="expected 2x1"):
        block_matrix([[F([[1]])]], [2], [1])
    with pytest.raises(ValueError):
        block_matrix([[None]], [1, 1], [1])


def ranks(diffs):
    return [linalg.rank(m) for m in diffs]


def test_cohomology_dim_levels():
    # 0 -> Q --(1,1)--> Q^2 --(1,-1)--> Q -> 0 is exact
    dims = [1, 2, 1]
    diffs = [F([[1], [1]]), F([[1, -1]])]
    assert [linalg.cohomology_dim(dims, ranks(diffs), t) for t in range(3)] == [0, 0, 0]
    # Q --0--> Q^2 --(1,0)--> Q: the first level keeps its kernel, the last
    # level its cokernel, and the middle level one class
    diffs = [F([[0], [0]]), F([[1, 0]])]
    assert [linalg.cohomology_dim(dims, ranks(diffs), t) for t in range(3)] == [1, 1, 0]
    diffs = [F([[1], [0]]), F([[0, 0]])]
    assert [linalg.cohomology_dim(dims, ranks(diffs), t) for t in range(3)] == [0, 1, 1]


def test_cohomology_dim_zero_dimensional_level():
    # Q -> 0 -> Q: the zero level contributes nothing, whatever its maps
    dims = [1, 0, 1]
    diffs = [[], F([[]])]
    assert [linalg.cohomology_dim(dims, ranks(diffs), t) for t in range(3)] == [1, 0, 1]
    # a complex with a single level and no maps
    assert linalg.cohomology_dim([3], [], 0) == 3


def dense_mat_mul(a, b):
    """Every entry as a full dot product: the reference for mat_mul."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def test_mat_mul_matches_dense_products():
    rng = random.Random(3)
    for _ in range(60):
        n, m, p = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.0, 0.2, 0.6, 1.0))

        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else Fraction(0)

        a = [[entry() for _ in range(m)] for _ in range(n)]
        b = [[entry() for _ in range(p)] for _ in range(m)]
        out = linalg.mat_mul(a, b)
        assert out == dense_mat_mul(a, b)
        assert exact_rule(out)


def test_mat_mul_shapes():
    assert linalg.mat_mul([], F([[1]])) == []
    assert linalg.mat_mul(F([[1, 2]]), [[], []]) == [[]]
    assert linalg.mat_mul([[], []], []) == [[], []]
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.mat_mul(F([[1, 2]]), F([[1, 2]]))


# ---------- Subspace against the one-rref-per-question helpers ----------

def random_columns(rng, n, k, max_den):
    """k columns in Q^n: zero columns, combinations of earlier columns and
    random ones, with denominators up to max_den."""

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        den = rng.randint(1, max_den)
        return Fraction(rng.randint(-5 * den, 5 * den), den)

    cols = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.15:
            cols.append([Fraction(0)] * n)
        elif roll < 0.45 and cols:
            picks = rng.sample(cols, rng.randint(1, len(cols)))
            coeffs = [entry() for _ in picks]
            cols.append([sum((c * v[i] for c, v in zip(coeffs, picks)), Fraction(0))
                         for i in range(n)])
        else:
            cols.append([entry() for _ in range(n)])
    return cols


def span_cases():
    """Seeded column sets: random, the empty set and full rank, each with
    small denominators and with denominators up to 10^12."""
    rng = random.Random(8)
    for case in range(240):
        max_den = 3 if case % 2 else 10 ** 12
        n = rng.randint(1, 6)
        if case % 8 == 0:
            yield n, [], rng, max_den
        elif case % 8 == 1:
            # full rank: the unit vectors under a random invertible shear
            cols = [linalg.unit_vector(n, i) for i in range(n)]
            for i in range(n):
                for j in range(i):
                    cols[i][j] = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, max_den))
            rng.shuffle(cols)
            yield n, cols, rng, max_den
        else:
            yield n, random_columns(rng, n, rng.randint(1, n + 3), max_den), rng, max_den


def test_subspace_matches_old_span_helpers():
    saw = {"dependent": 0, "zero": 0, "full": 0, "empty": 0}
    for n, cols, rng, max_den in span_cases():
        span = linalg.Subspace(n, cols)
        assert span.basis == old_independent_columns(cols)
        assert span.dim == len(span.basis)
        saw["dependent"] += len(cols) > span.dim
        saw["zero"] += any(not any(v) for v in cols)
        saw["full"] += span.dim == n
        saw["empty"] += not cols
        project, _ = _quotient_projection(span.basis, n)
        solver = OldColumnSolver(span.basis)
        probes = cols + random_columns(rng, n, 4, max_den) + [[Fraction(0)] * n]
        for v in probes:
            assert (v in span) == old_column_space_contains(cols, v)
            if span.basis:
                assert subspace_coords(span, v) == solver.solve(v)
            else:
                assert subspace_coords(span, v) == ([] if not any(v) else None)
            assert linalg.fraction_vector(*span.project(v)) == project(v)
    assert all(saw.values()), saw


def test_subspace_equality_matches_old_helper():
    rng = random.Random(9)
    outcomes = set()
    for case in range(150):
        n = rng.randint(1, 5)
        max_den = 10 ** 12 if case % 3 == 0 else 4
        u = random_columns(rng, n, rng.randint(0, n + 1), max_den)
        if rng.random() < 0.5:
            # the same span from other generators: combinations of u, shuffled
            v = random_columns(rng, n, 0, max_den)
            for _ in range(len(u) + 1):
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in u]
                v.append([sum((c * w[i] for c, w in zip(coeffs, u)), Fraction(0))
                          for i in range(n)])
            v += u
            rng.shuffle(v)
        else:
            v = random_columns(rng, n, rng.randint(0, n + 1), max_den)
        equal = linalg.Subspace(n, u) == linalg.Subspace(n, v)
        assert equal == old_subspace_equal(u, v)
        outcomes.add(equal)
    assert outcomes == {True, False}
    assert linalg.Subspace(2) != linalg.Subspace(3)


def test_minimal_polynomial_of_vector_matches_krylov_oracle():
    rng = random.Random(10)
    for case in range(120):
        n = rng.randint(1, 6)
        max_den = 10 ** 12 if case % 4 == 0 else 3
        a = [random_columns(rng, n, 1, max_den)[0] for _ in range(n)]
        if case % 5 == 0:
            # strictly upper triangular: nilpotent
            a = [[x if j > i else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(a)]
        v = random_columns(rng, n, 1, max_den)[0]
        assert linalg.annihilator(a, v) == old_minimal_polynomial_of_vector(a, v)
        zero = [Fraction(0)] * n
        assert linalg.annihilator(a, zero) == [Fraction(1)]
        assert old_minimal_polynomial_of_vector(a, zero) == [Fraction(1)]


def test_subspace_rejects_wrong_length_vector():
    span = linalg.Subspace(3, [F([[1, 2, 3]])[0]])
    short = F([[1, 2]])[0]
    for ask in (span.add, span.coords, span.project, span.__contains__):
        with pytest.raises(ValueError, match="length 2 in a subspace of Q\\^3"):
            ask(short)
    with pytest.raises(ValueError):
        linalg.Subspace(2, [F([[1, 2, 3]])[0]])


# ---------- integer elimination against the Fraction oracle ----------

def random_matrix(rng, kind, rows, cols):
    """A rows x cols matrix of one corpus kind (cech, rational, big, zero or
    small); integral entries are ints or Fractions at random."""

    def entry():
        if kind == "cech":
            x = rng.choice((0, 0, 0, 1, -1))
        elif kind == "rational":
            x = 0 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 10 ** 12))
        elif kind == "big":
            x = rng.choice((1, -1)) * (10 ** 12 + rng.randint(-50, 50)) if rng.random() < 0.7 else 0
        elif kind == "zero":
            x = 0
        else:
            x = rng.randint(-4, 4)
        return Fraction(x) if rng.random() < 0.5 else x

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def elimination_corpus():
    """Seeded matrices: 0/+-1 Cech-like, rationals with denominators up to
    10^12, entries near 10^12, small integers; tall, wide, square and
    rank-deficient ones (products through a narrower space), with zero rows
    and columns spliced in; all-zero matrices, [] and [[]]."""
    rng = random.Random(12)
    yield from ([], [[]], [[], []], [[0]], [[Fraction(0)] * 3] * 2, [[0] * 4] * 5)
    kinds = ("cech", "rational", "big", "small")
    for case in range(240):
        kind = kinds[case % 4]
        shape = ("tall", "wide", "square", "deficient")[case // 4 % 4]
        n = rng.randint(1, 7)
        rows, cols = {"tall": (n + rng.randint(2, 5), n), "wide": (n, n + rng.randint(2, 5)),
                      "square": (n, n), "deficient": (n + 1, n + 2)}[shape]
        if shape == "deficient":
            k = rng.randint(0, n - 1)
            a = linalg.mat_mul(random_matrix(rng, kind, rows, k), random_matrix(rng, kind, k, cols)) \
                if k else random_matrix(rng, "zero", rows, cols)
        else:
            a = random_matrix(rng, kind, rows, cols)
        if case % 5 == 0:
            a.insert(rng.randint(0, len(a)), [0] * cols)
        if case % 7 == 0:
            j = rng.randint(0, cols)
            a = [row[:j] + [Fraction(0)] + row[j:] for row in a]
        yield a


def Q(a):
    return [[Fraction(x) for x in row] for row in a]


def test_elimination_matches_the_fraction_oracle():
    rng = random.Random(13)
    ranks = set()
    for a in elimination_corpus():
        before = linalg.copy(a)
        r, pivots = linalg.rref(a)
        assert (r, pivots) == old_rref(Q(a)), a
        assert exact_rule(r)
        assert linalg.rank(a) == old_rank(Q(a)) == len(pivots)
        kernel = linalg.nullspace(a)
        assert kernel == old_nullspace(Q(a))
        assert exact_rule(kernel)
        rows, cols = linalg.shape(a)
        x = [rng.randint(-3, 3) for _ in range(cols)]
        for b in (linalg.mat_vec(a, x), [rng.randint(-3, 3) for _ in range(rows)]):
            solution = linalg.solve(a, b)
            assert solution == old_solve(Q(a), b)
            assert solution is None or exact_rule(solution)
        assert a == before  # the input is not touched
        ranks.add((len(pivots) == min(rows, cols), bool(cols)))
    assert ranks == {(True, True), (False, True), (True, False)}


def test_echelon_rows_stay_primitive():
    """The kernel's invariant: every row has content 1 (or is zero), the
    pivot rows come first, and the reduced rows are their pivots times the
    rows of the reduced row echelon form."""
    for a in elimination_corpus():
        expected, pivots = old_rref(Q(a))
        for reduced in (False, True):
            m = linalg.primitive_rows(a)
            assert linalg._echelon(m, reduced) == pivots
            assert all(math.gcd(*row) in (0, 1) for row in m)
            assert not any(map(any, m[len(pivots):]))
            for i, p in enumerate(pivots):
                assert not any(m[i][:p]) and m[i][p]
                if reduced:
                    assert [Fraction(x, m[i][p]) for x in m[i]] == expected[i]


def test_cohomology_dim_matches_oracle_ranks():
    rng = random.Random(14)
    for case in range(150):
        dims = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        kind = ("cech", "rational", "big", "small")[case % 4]
        diffs = [random_matrix(rng, kind, dims[t + 1], dims[t]) for t in range(len(dims) - 1)]
        for t in range(len(dims)):
            expected = dims[t] and dims[t] - (old_rank(Q(diffs[t])) if t < len(diffs) else 0) \
                - (old_rank(Q(diffs[t - 1])) if t else 0)
            assert linalg.cohomology_dim(dims, ranks(diffs), t) == expected


@pytest.mark.parametrize("ragged", [[[0, 2], [2]], [[1], [1, 1]], [[1, 1], [1]], [[], [1]]])
def test_elimination_refuses_ragged_matrices(ragged):
    for fn in (linalg.rref, linalg.rank, linalg.nullspace):
        with pytest.raises(ValueError, match="ragged matrix"):
            fn(ragged)


def product_corpus():
    """Seeded factor pairs of every kind of `random_matrix`, mixed between
    the two factors, with zero rows and columns spliced in, and with empty
    shapes: no rows, an inner dimension of 0, no columns."""
    rng = random.Random(21)
    kinds = ("cech", "rational", "big", "zero", "small")
    for case in range(300):
        ra, k, cb = (rng.randint(0, 6) if rng.random() < 0.15 else rng.randint(1, 6)
                     for _ in range(3))
        a = random_matrix(rng, rng.choice(kinds), ra, k)
        b = random_matrix(rng, rng.choice(kinds), k, cb)
        if case % 5 == 0 and a:
            a[rng.randrange(ra)] = [0] * k
        if case % 7 == 0 and k:
            j = rng.randrange(k)
            a = [row[:j] + [Fraction(0)] + row[j + 1:] for row in a]
            b[j] = [0] * cb
        yield a, b


def test_products_match_the_fraction_oracle():
    rng = random.Random(22)
    for a, b in product_corpus():
        before = (linalg.copy(a), linalg.copy(b))
        out = linalg.mat_mul(a, b)
        assert out == old_mat_mul(Q(a), Q(b)) and exact_rule(out), (a, b)
        assert (a, b) == before
        k = len(a[0]) if a else 0
        for kind in ("rational", "big", "small", "zero"):
            v = random_matrix(rng, kind, 1, k)[0]
            out = linalg.mat_vec(a, v)
            assert out == old_mat_vec(Q(a), v) and exact_rule(out), (a, v)


def test_mat_mul_refuses_a_ragged_right_factor():
    # once answered [[4, 2]]
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.mat_mul([[1, 1]], [[1, 2], [3]])


def test_mat_mul_refuses_a_ragged_left_factor():
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.mat_mul([[1, 1], [1]], [[1, 2], [3, 4]])


def test_transpose_and_from_columns_refuse_ragged_input():
    # once truncated to [[1, 3]]
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.transpose([[1, 2], [3]])


def test_mat_pow_refuses_a_negative_power():
    # once looped forever: k >>= 1 stays at -1
    with pytest.raises(ValueError, match="negative power -1"):
        linalg.mat_pow(F([[1, 1], [0, 1]]), -1)
    assert linalg.mat_pow(F([[1, 1], [0, 1]]), 0) == F([[1, 0], [0, 1]])
    assert linalg.mat_pow(F([[1, 1], [0, 1]]), 5) == F([[1, 5], [0, 1]])


def test_mat_vec_refuses_vector_of_wrong_length():
    with pytest.raises(ValueError, match="1x2 \\* vector of length 1"):
        linalg.mat_vec([[1, 2]], [1])


def test_solve_refuses_right_side_of_wrong_length():
    with pytest.raises(ValueError, match="1x1 matrix, vector of length 2"):
        linalg.solve([[1]], [1, 2])


def test_cohomology_dim_refuses_level_outside_the_complex():
    for t in (-1, 2):
        with pytest.raises(ValueError, match=f"level {t} of a complex with levels 0..1"):
            linalg.cohomology_dim([1, 1], [1], t)


# ---------- integer Subspace, Krylov and Horner against the Fraction oracles ----------

SPAN_KINDS = ("cech", "rational", "big", "small", "zero", "dependent")


def span_vector(rng, kind, n, earlier):
    """A vector of Q^n of one kind: 0/+-1, rational with denominators up to
    10^12, near 10^12, small, zero, or a combination of earlier vectors."""
    if kind != "dependent":
        return random_matrix(rng, kind, 1, n)[0] if n else []
    picks = rng.sample(earlier, rng.randint(1, len(earlier))) if earlier else []
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 10 ** 12))) for _ in picks]
    return [sum((c * v[i] for c, v in zip(coeffs, picks)), Fraction(0)) for i in range(n)]


def subspace_corpus():
    """Seeded vector lists: n = 0, empty lists, and mixes of every kind in
    Q^1..Q^6, with more vectors than n so that some are dependent."""
    rng = random.Random(14)
    yield 0, []
    yield 0, [[], []]
    for case in range(200):
        n = rng.randint(1, 6)
        count = 0 if case % 10 == 0 else rng.randint(1, n + 3)
        vectors = []
        for _ in range(count):
            vectors.append(span_vector(rng, rng.choice(SPAN_KINDS), n, vectors))
        yield n, vectors


def test_integer_subspace_matches_the_fraction_oracle():
    rng = random.Random(15)
    saw = {"dependent": 0, "full": 0, "empty": 0, "n = 0": 0}
    for n, vectors in subspace_corpus():
        new, old = linalg.Subspace(n), OldSubspace(n)
        for v in vectors:
            assert new.add(v) == old.add(v)
        assert new.basis == old.basis and new.dim == old.dim
        saw["dependent"] += len(vectors) > new.dim
        saw["full"] += new.dim == n > 0
        saw["empty"] += not vectors
        saw["n = 0"] += n == 0
        probes = vectors + [span_vector(rng, kind, n, vectors) for kind in SPAN_KINDS]
        for v in probes:
            assert (v in new) == (v in old)
            coords = subspace_coords(new, v)
            assert coords == old.coords(v)
            assert coords is None or exact_rule(coords)
            projected = linalg.fraction_vector(*new.project(v))
            assert projected == old.project(v) and exact_rule(projected)
        # another insertion order: the same rows, so equal spans and the same
        # projections; a span with one vector fewer is equal iff it is dependent
        shuffled = vectors[::-1]
        rng.shuffle(shuffled)
        again = linalg.Subspace(n, shuffled)
        assert again == new and OldSubspace(n, shuffled) == old
        # compared by value: the denominator of a pair can change with the order
        assert ([linalg.fraction_vector(*again.project(v)) for v in probes]
                == [linalg.fraction_vector(*new.project(v)) for v in probes])
        fewer = vectors[1:]
        assert (linalg.Subspace(n, fewer) == new) == (OldSubspace(n, fewer) == old)
    assert all(saw.values()), saw


def test_krylov_and_horner_on_integer_vectors_match_the_fraction_oracles():
    rng = random.Random(16)
    for case in range(160):
        kind = ("cech", "rational", "big", "small")[case % 4]
        n = rng.randint(0, 6)
        a = random_matrix(rng, kind, n, n)
        if case % 5 == 0:
            # strictly upper triangular: nilpotent
            a = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
        v = span_vector(rng, rng.choice(SPAN_KINDS[:5]), n, [])
        m, den = linalg.integer_matrix(a)
        assert all(type(x) is int for row in m for x in row) and den >= 1
        assert linalg.annihilator(a, v) == old_minimal_polynomial_of_vector(Q(a), Q([v])[0])
        p = [Fraction(rng.randint(-9, 9), rng.choice((1, 3, 10 ** 12)))
             for _ in range(rng.randint(0, 5))]
        out = linalg.poly_apply(p, a, v)
        assert out == old_poly_apply(p, Q(a), Q([v])[0]) and exact_rule(out)

import random
from fractions import Fraction

import pytest

from oracles import (
    exact_rule,
    factor_radical,
    mult_matrix,
    old_decompose_local,
    old_mult,
    old_mult_matrix,
    old_radical_basis,
    old_structure_table,
    pairwise_idempotent_check,
    rederived_decompose_local,
    reduced_variable_columns,
    var_matrices,
)
from weylcas import artin, linalg, univar
from weylcas.artin import ArtinAlgebra, LocalFactor, _assert_idempotent_system, decompose_local
from weylcas.groebner import Ideal, NotZeroDimensionalError, intersect
from weylcas.poly import SparsePoly

X = ("x",)
Y = ("y",)
XY = ("x", "y")
xv = SparsePoly.variable(X, 0)
yv = SparsePoly.variable(Y, 0)
XYZ = ("x", "y", "z")
x2 = SparsePoly.variable(XY, 0)
y2 = SparsePoly.variable(XY, 1)
x3, y3, z3 = (SparsePoly.variable(XYZ, i) for i in range(3))


def test_dual_numbers():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 2])
    assert A.dim == 2
    ybar = A.to_vector(yv)
    assert all(c == 0 for c in A.mult(ybar, ybar))


def test_two_vars_presentation():
    A = ArtinAlgebra.from_presentation(XY, [x2, y2 ** 2])
    assert A.dim == 2


def test_cubic_presentation():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 3 - yv ** 2])
    assert A.dim == 3
    assert [e for e in A.basis] == [(0,), (1,), (2,)]


def test_not_zero_dimensional():
    with pytest.raises(NotZeroDimensionalError):
        ArtinAlgebra.from_presentation(XY, [y2])


def test_ring_axioms_small():
    A = ArtinAlgebra.from_presentation(XY, [x2 ** 2 - y2, y2 ** 2])
    units = [linalg.unit_vector(A.dim, i) for i in range(A.dim)]
    for ei in units:
        for ej in units:
            assert A.mult(ei, ej) == A.mult(ej, ei)
            for ek in units:
                assert A.mult(A.mult(ei, ej), ek) == A.mult(ei, A.mult(ej, ek))


def test_decompose_split_quadratic():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 2 - 1])
    factors = decompose_local(A)
    assert sorted(f.dim for f in factors) == [1, 1]


def test_decompose_local_already():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 2])
    factors = decompose_local(A)
    assert [f.dim for f in factors] == [2]
    assert factors[0].residue_dim == 1


def test_decompose_nilpotent_plus_point():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 3 - yv ** 2])
    factors = decompose_local(A)
    assert sorted(f.dim for f in factors) == [1, 2]


def test_decompose_irreducible_quadratic_is_field():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 2 + 1])
    factors = decompose_local(A)
    assert [f.dim for f in factors] == [2]
    assert factors[0].residue_dim == 2
    assert not A.radical_basis() and len(decompose_local(A)) == 1


def test_decompose_product_of_two_quadratic_fields():
    A = ArtinAlgebra.from_presentation(Y, [(yv ** 2 + 1) * (yv ** 2 - 2)])
    factors = decompose_local(A)
    assert sorted(f.dim for f in factors) == [2, 2]
    assert sorted(f.residue_dim for f in factors) == [2, 2]


def test_decompose_needs_random_combination():
    # Q[x,y]/(x^2-2, y^2-2) = Q(sqrt2) x Q(sqrt2); both generators have
    # irreducible minimal polynomials, only a combination splits it
    A = ArtinAlgebra.from_presentation(XY, [x2 ** 2 - 2, y2 ** 2 - 2])
    factors = decompose_local(A)
    assert sorted(f.dim for f in factors) == [2, 2]


def test_radical_of_field_is_zero():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 2 + 7])
    assert A.radical_basis() == []


def test_radical_dimension_dual_numbers():
    A = ArtinAlgebra.from_presentation(Y, [yv ** 4])
    assert len(A.radical_basis()) == 3


def random_zero_dim_ideal(rng):
    a = rng.randint(1, 5)
    b = rng.randint(1, 5)
    gens = []
    for lead_var, lead_deg in ((0, a), (1, b)):
        e = [0, 0]
        e[lead_var] = lead_deg
        terms = {tuple(e): Fraction(1)}
        for _ in range(rng.randint(0, 3)):
            tot = rng.randrange(max(lead_deg, 1))
            i = rng.randrange(tot + 1)
            mono = (i, tot - i)
            terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-3, 3))
        gens.append(SparsePoly(XY, terms))
    return Ideal(XY, gens)


def test_decompose_soundness_random():
    rng = random.Random(42)
    for _ in range(25):
        I = random_zero_dim_ideal(rng)
        A = ArtinAlgebra(I)
        if A.dim == 0:
            continue
        factors = decompose_local(A)  # internal asserts check idempotents
        assert sum(f.dim for f in factors) == A.dim
        assert sum(f.residue_dim for f in factors) <= A.dim


# ---------- complete factorization and CRT idempotents ----------


@pytest.mark.parametrize("poly,dims,residues", [
    ((xv ** 2 + 1) * (xv ** 3 - 2), [3, 2], [3, 2]),
    ((xv ** 3 - 2) * (xv ** 3 - 3), [3, 3], [3, 3]),
    ((xv ** 2 + 1) ** 2 * (xv ** 3 - 2), [4, 3], [2, 3]),
])
def test_degree_five_and_six_products_split(poly, dims, residues):
    # the kernel-power path with trial division kept these whole
    A = ArtinAlgebra.from_presentation(X, [poly])
    factors = decompose_local(A)
    assert [f.dim for f in factors] == dims
    assert [f.residue_dim for f in factors] == residues


def test_factor_radical_is_computed_once():
    A = ArtinAlgebra.from_presentation(X, [(xv ** 2 + 1) ** 2 * (xv ** 3 - 2) * xv ** 2])
    for f in decompose_local(A):
        # decompose_local read every residue dimension above 1; it is kept
        assert f.dim == 1 or "residue_dim" in vars(f)
        assert f.residue_dim == f.dim - len(factor_radical(f))
    assert sorted(f.residue_dim for f in decompose_local(A)) == [1, 2, 3]

@pytest.mark.parametrize("degree", [5, 6, 7])
def test_full_degree_irreducible_certifies_a_field(degree):
    A = ArtinAlgebra.from_presentation(X, [xv ** degree - 2])
    assert [f.dim for f in decompose_local(A)] == [degree]
    assert not A.radical_basis() and len(decompose_local(A)) == 1


def test_no_certified_split_raises(monkeypatch):
    # Q(sqrt2) x Q(sqrt2): the variables have irreducible minimal
    # polynomials of degree 2 < 4, and without random combinations nothing
    # splits or certifies the algebra as local
    monkeypatch.setattr(artin, "EXTRA_TRIALS", 0)
    A = ArtinAlgebra.from_presentation(XY, [x2 ** 2 - 2, y2 ** 2 - 2])
    with pytest.raises(RuntimeError, match="no split certified"):
        decompose_local(A)


def eisenstein_monic(rng, degree):
    p = rng.choice((2, 3, 5))
    coeffs = [p * rng.randint(-2, 2) for _ in range(degree)]
    c0 = 0
    while c0 % p == 0:
        c0 = rng.randint(-4, 4)
    coeffs[0] = p * c0
    return sum((c * xv ** i for i, c in enumerate(coeffs)), xv ** degree)


def point_ideal(rng, mx, my):
    rs = rng.sample(range(-4, 5), len(mx))
    ss = rng.sample(range(-4, 5), len(my))
    c = rng.choice((-2, -1, 1, 2))
    f, g = SparsePoly.one(XY), SparsePoly.one(XY)
    for r, m in zip(rs, mx):
        f = f * (x2 - r) ** m
    for s, m in zip(ss, my):
        g = g * (y2 - c * x2 - s) ** m
    return Ideal(XY, [f, g]), sorted((a * b for a in mx for b in my), reverse=True)


def known_corpus():
    """(algebra, factor dimensions) with the answer fixed by construction."""
    rng = random.Random(5)
    out = []
    for pattern in ([1, 1, 2], [2, 1], [2, 2], [3, 1, 1], [4, 1], [2, 3], [3, 3], [5, 1]):
        gens, dims = SparsePoly.one(X), []
        used = set()
        for d in pattern:
            while True:
                q = xv - rng.randint(-9, 9) if d == 1 else eisenstein_monic(rng, d)
                if q.to_str() not in used:
                    break
            used.add(q.to_str())
            m = rng.randint(1, 2)
            gens = gens * q ** m
            dims.append(d * m)
        out.append((ArtinAlgebra(Ideal(X, [gens])), sorted(dims, reverse=True)))
    for mx, my in (([2], [1, 1]), ([2, 1], [2]), ([1, 1], [2, 1]), ([3], [1, 2]), ([1, 1, 1], [1, 1])):
        ideal, dims = point_ideal(rng, mx, my)
        out.append((ArtinAlgebra(ideal), dims))
    return out


def snapshot(factors):
    """Dimensions, idempotents and spans: the basis of a span is not
    compared."""
    return [(f.dim, f.idempotent, linalg.Subspace(f.algebra.dim, f.basis_vectors))
            for f in factors]


def test_same_factors_as_kernel_powers_where_those_are_right():
    checked = 0
    for A, dims in known_corpus():
        new = decompose_local(A)
        assert [f.dim for f in new] == dims
        old = old_decompose_local(A)
        if [f.dim for f in old] == dims:
            assert snapshot(new) == snapshot(old)
            checked += 1
    rng = random.Random(42)
    for _ in range(25):
        A = ArtinAlgebra(random_zero_dim_ideal(rng))
        if A.dim == 0:
            continue
        new, old = decompose_local(A), old_decompose_local(A)
        # the new factors are local, so the old ones were iff there are as many
        if len(old) == len(new):
            assert snapshot(new) == snapshot(old)
            checked += 1
    assert checked >= 25


def test_every_factor_is_fixed_by_its_idempotent():
    # a factor is eA: e v = v for each of its basis vectors, kept as
    # integer rows
    for A, _ in known_corpus():
        factors = decompose_local(A)
        assert sum(f.dim for f in factors) == A.dim
        for f in factors:
            assert len(f.basis_vectors) == f.dim
            assert all(A.mult(f.idempotent, v) == v for v in f.basis_vectors)
            assert all(type(x) is int for v in f.basis_vectors for x in v)


# ---------- the structure tensor against one reduction per product ----------

def product_corpus():
    """The decomposition ideals above, the hull ideals of test_hulls, ideals
    with rational coefficients and constants near 10^12, and the zero
    algebra."""
    out = [A for A, _ in known_corpus()]
    rng = random.Random(42)
    out += [ArtinAlgebra(random_zero_dim_ideal(rng)) for _ in range(25)]
    out += [ArtinAlgebra.from_presentation(Y, [g]) for g in (
        yv ** 2, yv ** 2 - 1, yv ** 4, yv ** 3 - yv ** 2, yv ** 3, yv ** 2 + 7)]
    out.append(ArtinAlgebra.from_presentation(XY, [(x2 - 3) ** 3, (x2 + y2) ** 2 - 4]))
    out.append(ArtinAlgebra.from_presentation(XY, [x2 ** 3 - y2, y2 ** 2]))
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    out.append(ArtinAlgebra.from_presentation(
        XY, [(x2 - third) ** 2 * (x2 + 2), (y2 - seventh * x2) ** 2 - Fraction(5, 11) * x2]))
    out.append(ArtinAlgebra.from_presentation(
        X, [(xv ** 2 + 10 ** 12 + 39) * (xv - 1) ** 2 * (xv + Fraction(1, 10 ** 12))]))
    out.append(ArtinAlgebra.from_presentation(
        XY, [x2 ** 3 - Fraction(10 ** 12 - 11, 3) * y2, y2 ** 2 - Fraction(1, 10 ** 12) * x2 * y2]))
    out.append(ArtinAlgebra.from_presentation(X, [xv - 1, xv]))
    return out


def random_element(rng, dim):
    """Zero, unit and dense vectors with int and Fraction entries, up to
    denominators of 10^12."""
    kind = rng.randrange(4)
    if kind == 0:
        return [Fraction(0)] * dim
    if kind == 1:
        return linalg.unit_vector(dim, rng.randrange(dim))
    if kind == 2:
        return [rng.randint(-3, 3) for _ in range(dim)]
    return [Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
            if rng.random() < 0.7 else Fraction(0) for _ in range(dim)]


def test_products_match_one_reduction_per_product():
    rng = random.Random(13)
    checked = 0
    for A in product_corpus():
        table = old_structure_table(A)
        assert A.table == table and exact_rule(A.table)
        assert A.radical_basis() == old_radical_basis(table)
        for i, m in enumerate(var_matrices(A)):
            x = A.to_vector(SparsePoly.variable(A.vars, i))
            assert m == old_mult_matrix(table, x) and exact_rule(m)
        if A.dim == 0:
            assert A.mult([], []) == [] and mult_matrix(A, []) == [] and A.one() == []
            continue
        assert A.one() == A.to_vector(SparsePoly.one(A.vars))
        for _ in range(4):
            u, v = random_element(rng, A.dim), random_element(rng, A.dim)
            product = A.mult(u, v)
            assert product == old_mult(table, u, v) and exact_rule(product)
            m = mult_matrix(A, v)
            assert m == old_mult_matrix(table, v) and exact_rule(m)
        checked += 1
    assert checked >= 40


def test_table_is_built_on_first_access_only():
    A = ArtinAlgebra.from_presentation(XY, [(x2 - 3) ** 3, (x2 + y2) ** 2 - 4])
    decompose_local(A)
    assert "table" not in vars(A)
    assert A.table is A.table


def test_only_border_monomials_are_reduced(monkeypatch):
    reduced = []
    original = Ideal.reduce

    def counting(self, f, *args, **kwargs):
        reduced.append(f)
        return original(self, f, *args, **kwargs)

    monkeypatch.setattr(Ideal, "reduce", counting)
    for built in product_corpus():
        # the ideal keeps its Groebner basis, so only the structure data
        # count: the border normal forms come by recurrence, with none
        reduced.clear()
        ArtinAlgebra(built.ideal)
        assert reduced == []


# ---------- coordinate vectors of the wrong length ----------

def fat_point():
    """Q[x,y]/(x^2, xy, y^2), of dimension 3."""
    return ArtinAlgebra.from_presentation(XY, [x2 ** 2, x2 * y2, y2 ** 2])


def test_mult_refuses_vectors_of_the_wrong_length():
    # once answered [1, 0, 0] for mult([1], [1, 0, 0])
    A = fat_point()
    for u, v in (([1], [1, 0, 0]), ([1, 0, 0], [1, 0, 0, 5]), ([1, 0, 0, 0], [1])):
        with pytest.raises(ValueError, match="in an algebra of dimension 3"):
            A.mult(u, v)
    assert A.mult([1, 0, 0], [0, 2, 0]) == [0, 2, 0]


def test_to_poly_refuses_a_vector_of_the_wrong_length():
    A = fat_point()
    for v in ([1], [1, 0, 0, 5]):
        with pytest.raises(ValueError):
            A.to_poly(v)
    assert A.to_poly([1, 0, 0]) == SparsePoly.one(XY)


def test_factor_coordinates_refuse_input_of_the_wrong_length():
    """Every factor refuses through its subspace and mat_vec."""
    whole = decompose_local(ArtinAlgebra.from_presentation(X, [xv ** 3]))[0]
    proper = max(decompose_local(ArtinAlgebra.from_presentation(X, [xv ** 2 * (xv - 1)])),
                 key=lambda f: f.dim)
    assert whole.dim == 3 and proper.dim == 2
    for factor in (whole, proper):
        for m in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
            with pytest.raises(ValueError):
                factor.restrict(m)
    assert whole.restrict(linalg.identity(3)) == (linalg.identity(3), 1)
    assert proper.restrict(linalg.identity(3)) == (linalg.identity(2), 1)
    # the scaled form: the restriction of (m / den) is the restriction of m over den
    assert proper.restrict(linalg.identity(3), 6) == (linalg.identity(2), 6)


# ---------- what a split proved, against re-deriving it per piece ----------

def inheritance_corpus():
    """Q[x]/prod q_i^m_i and point ideals (known_corpus, more point
    shapes), random 2-variable ideals, and ideals with irrational points
    beside a rational one: Q(sqrt p, sqrt q) x Q in 2 variables and
    Q(p^(1/4), sqrt q) x Q in 3, where the first split leaves a piece whose
    residue field is larger than every prime degree proved on it, and
    Q(sqrt 2) x Q(sqrt 2), whose pieces are certified by the degree the
    first variable proved."""
    out = [A for A, _ in known_corpus()]
    rng = random.Random(11)
    for mx, my in (([2, 1], [1, 1]), ([1, 1], [3]), ([2, 2], [1, 2]), ([1, 1, 1], [2, 1])):
        out.append(ArtinAlgebra(point_ideal(rng, mx, my)[0]))
    out += [ArtinAlgebra(random_zero_dim_ideal(rng)) for _ in range(15)]
    for _ in range(8):
        p, q = rng.sample((2, 3, 5, 7), 2)
        c = rng.randint(-2, 2)
        field = Ideal(XY, [x2 ** 2 - p, (y2 - c * x2) ** 2 - q])
        point = Ideal(XY, [x2 - rng.randint(-3, 3), y2 - rng.randint(-3, 3)])
        out.append(ArtinAlgebra(intersect(field, point)))
    for _ in range(3):
        p, q = rng.sample((2, 3, 5), 2)
        field = Ideal(XYZ, [x3 ** 2 - p, y3 ** 2 - q, z3 ** 2 - x3])
        point = Ideal(XYZ, [x3 - rng.randint(-3, 3), y3, z3 - rng.randint(-3, 3)])
        out.append(ArtinAlgebra(intersect(field, point)))
    out.append(ArtinAlgebra.from_presentation(XY, [x2 ** 2 - 2, y2 ** 2 - y2]))
    return out


def test_decompositions_equal_the_rederiving_oracle(monkeypatch):
    # each call: (dim, residue dimension known before the call, start,
    # inherited degrees, residue dimension, certified local)
    calls = []
    split = artin._try_split

    def spying(algebra, variables, candidates, factor, start, degrees):
        preset = "residue_dim" in vars(factor)
        out = split(algebra, variables, candidates, factor, start, degrees)
        calls.append((factor.dim, preset, start, degrees,
                      factor.residue_dim if factor.dim > 1 else 1, out is None))
        return out

    monkeypatch.setattr(artin, "_try_split", spying)
    corpus = inheritance_corpus()
    for A in corpus:
        new, old = decompose_local(A), rederived_decompose_local(A)
        assert ([(f.dim, f.basis_vectors, f.idempotent, f.residue_dim) for f in new]
                == [(f.dim, f.basis_vectors, f.idempotent, f.residue_dim) for f in old])
    assert sum(A.dim for A in corpus) > 250
    sum_rule = [c for c in calls if c[1] and c[2] > 0]
    inherited = [c for c in calls if not c[1] and c[0] > 1 and 1 < c[4] in c[3]]
    resumed = [c for c in calls if c[2] > 0 and c[0] > 1 and c[4] > 1 and c[4] not in c[3]]
    # a piece the sum rule settled is certified local at once
    assert sum_rule and all(c[5] for c in sum_rule)
    assert inherited and all(c[5] for c in inherited)
    assert resumed


def test_residue_dims_equal_the_factor_radical():
    # decompose_local sets some residue dimensions and ranks others; a fresh
    # factor on the same span ranks its basis modulo the one echelon form
    # of Rad A
    checked = 0
    for A in inheritance_corpus():
        for f in decompose_local(A):
            fresh = LocalFactor(A, f.basis_vectors, f.idempotent)
            assert f.residue_dim == fresh.residue_dim == f.dim - len(factor_radical(f))
            checked += 1
    assert checked > 90


def test_variable_columns_equal_one_reduction_per_border_monomial():
    for A in product_corpus() + inheritance_corpus():
        cols, den = reduced_variable_columns(A)
        assert A._variable_columns() == (cols, den)
        assert [m for m, _ in A._vars] == [
            [[dict(col).get(r, 0) for col in cols_k] for r in range(A.dim)] for cols_k in cols]
        assert all(d == den for _, d in A._vars)
        assert (A._den, A._tensor) == A._structure_tensor(cols, den)


def test_a_split_by_the_sum_rule_factors_and_annihilates_once(monkeypatch):
    # mu of x is the whole modulus, of prime degrees 2 + 3 + 1 = 6 = dim A -
    # dim Rad A: the three pieces are local with no further candidate
    counts = {"coprime_factorization": 0, "annihilator": 0}
    for module, name in ((univar, "coprime_factorization"), (linalg, "annihilator")):
        def counting(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    A = ArtinAlgebra.from_presentation(X, [(xv ** 2 + 1) ** 2 * (xv ** 3 - 2) * (xv - 1)])
    factors = decompose_local(A)
    assert counts == {"coprime_factorization": 1, "annihilator": 1}
    assert [(f.dim, f.residue_dim) for f in factors] == [(4, 2), (3, 3), (1, 1)]


# ---------- the idempotent check in k products ----------

def test_the_idempotent_check_refuses_a_broken_system():
    A = ArtinAlgebra.from_presentation(X, [(xv ** 2 + 1) ** 2 * (xv ** 3 - 2) * (xv - 1)])
    factors = decompose_local(A)
    _assert_idempotent_system(A, factors)
    first, *rest = factors
    x = A.to_vector(xv)
    not_idempotent = LocalFactor(A, first.basis_vectors, A.mult(x, first.idempotent))
    with pytest.raises(RuntimeError, match="e\\^2 = e"):
        _assert_idempotent_system(A, [not_idempotent] + rest)
    with pytest.raises(RuntimeError, match="do not sum to 1"):
        _assert_idempotent_system(A, rest)
    short = LocalFactor(A, first.basis_vectors[1:], first.idempotent)
    with pytest.raises(RuntimeError, match="dimensions do not sum"):
        _assert_idempotent_system(A, [short] + rest)


def test_the_pairwise_check_holds_wherever_the_k_product_check_passes():
    # systems of sums of the factors' idempotents, over two sets of factors
    # that cover all of them: the k-product check passes exactly when the
    # sets are disjoint, and the pairwise check must agree with it then
    rng = random.Random(29)
    passed = refused = 0
    for A in inheritance_corpus():
        factors = decompose_local(A)
        pairwise_idempotent_check(A, factors)
        for _ in range(3):
            picks = [rng.randrange(3) for _ in factors]
            left = [f for f, p in zip(factors, picks) if p != 1]
            right = [f for f, p in zip(factors, picks) if p != 0]
            system = [LocalFactor(A, [v for f in part for v in f.basis_vectors],
                                  [sum(col) for col in zip(*[f.idempotent for f in part])])
                      for part in (left, right) if part]
            try:
                _assert_idempotent_system(A, system)
            except RuntimeError:
                refused += 1
                assert 2 in picks
                continue
            pairwise_idempotent_check(A, system)
            passed += len(system) > 1
    assert passed > 10 and refused > 10

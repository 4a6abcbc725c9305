"""Finite-dimensional commutative algebras and their local decomposition.

An ArtinAlgebra is a quotient Q[vars]/I for a zero-dimensional ideal I,
presented by its standard-monomial basis and multiplication data.  The
decomposition into local factors splits along kernel-power (generalized
eigenspace) decompositions of multiplication operators: first the images
of the ring variables, then seeded random combinations of them, until no
element's minimal polynomial separates into coprime parts.  In a local
algebra every element has a primary minimal polynomial, so nothing splits
once the factors are local; over an infinite field a generic combination
splits anything that is not.

The Jacobson radical is computed from the trace form, which in
characteristic zero has the radical as its kernel; residue-field
dimensions follow without any factorization.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg, univar
from .groebner import Ideal, standard_monomials
from .poly import GREVLEX, SparsePoly, TermOrder


class ArtinAlgebra:
    def __init__(self, ideal: Ideal, order: TermOrder = GREVLEX):
        self.ideal = ideal
        self.order = order
        self.vars = ideal.vars
        self.basis = standard_monomials(ideal, order)  # raises if not 0-dim
        self.dim = len(self.basis)
        self._pos = {e: i for i, e in enumerate(self.basis)}
        # structure constants: table[i][j] = coordinates of basis_i * basis_j
        nf_cache: dict[tuple, list[Fraction]] = {}

        def nf_of(exp):
            if exp not in nf_cache:
                nf_cache[exp] = self._reduce_to_vector(SparsePoly.monomial(self.vars, exp))
            return nf_cache[exp]

        self.table = [
            [nf_of(tuple(a + b for a, b in zip(ei, ej))) for ej in self.basis]
            for ei in self.basis
        ]
        self.var_matrices = [
            self.mult_matrix(self.to_vector(SparsePoly.variable(self.vars, i)))
            for i in range(len(self.vars))
        ]
        self.basis_traces = [
            sum((self.table[k][j][j] for j in range(self.dim)), Fraction(0))
            for k in range(self.dim)
        ]
        self._radical: list | None = None

    @classmethod
    def from_presentation(cls, variables, generators, order: TermOrder = GREVLEX):
        return cls(Ideal(variables, list(generators)), order)

    # ---------- vector encoding ----------

    def _reduce_to_vector(self, p: SparsePoly) -> list[Fraction]:
        nf = self.ideal.reduce(p, self.order)
        v = [Fraction(0)] * self.dim
        for e, c in nf.terms.items():
            v[self._pos[e]] = c
        return v

    def to_vector(self, p: SparsePoly) -> list[Fraction]:
        """Coordinates of p modulo the ideal in the standard-monomial basis."""
        return self._reduce_to_vector(p)

    def to_poly(self, v) -> SparsePoly:
        terms = {e: c for e, c in zip(self.basis, v) if c != 0}
        return SparsePoly(self.vars, terms)

    def one(self) -> list[Fraction]:
        return self.to_vector(SparsePoly.one(self.vars))

    def monomial_action(self, exponents) -> list[list[Fraction]]:
        """Multiplication matrix of a basis monomial."""
        return self.mult_matrix(self.to_vector(SparsePoly.monomial(self.vars, exponents)))

    def mult(self, u, v):
        out = [Fraction(0)] * self.dim
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                c = ci * cj
                row = self.table[i][j]
                for k, t in enumerate(row):
                    if t != 0:
                        out[k] += c * t
        return out

    def mult_matrix(self, v) -> list[list[Fraction]]:
        """Multiplication matrix of the element with coordinate vector v."""
        cols = [self.mult(v, linalg.unit_vector(self.dim, j)) for j in range(self.dim)]
        return linalg.from_columns(cols)

    # ---------- semisimplicity data ----------

    def trace_gram(self) -> list[list[Fraction]]:
        # trace of multiplication by basis_k, then bilinearity over the table
        traces = self.basis_traces
        gram = linalg.zeros(self.dim, self.dim)
        for i in range(self.dim):
            for j in range(i, self.dim):
                gram[i][j] = gram[j][i] = sum(
                    (c * t for c, t in zip(self.table[i][j], traces)), Fraction(0)
                )
        return gram

    def radical_basis(self) -> list[list[Fraction]]:
        """Basis of the Jacobson radical (kernel of the trace form)."""
        if self.dim == 0:
            return []
        if self._radical is None:
            self._radical = linalg.nullspace(self.trace_gram())
        return self._radical

    def is_field(self) -> bool:
        if self.dim == 0:
            return False
        return not self.radical_basis() and len(decompose_local(self)) == 1

    def check_ring_axioms(self, sample: list[tuple[int, int, int]] | None = None) -> bool:
        """Commutativity/associativity on basis triples (all, or a sample)."""
        idx = sample or [
            (i, j, k)
            for i in range(self.dim)
            for j in range(self.dim)
            for k in range(self.dim)
        ]
        for i, j, k in idx:
            ei = linalg.unit_vector(self.dim, i)
            ej = linalg.unit_vector(self.dim, j)
            ek = linalg.unit_vector(self.dim, k)
            if self.mult(ei, ej) != self.mult(ej, ei):
                return False
            if self.mult(self.mult(ei, ej), ek) != self.mult(ei, self.mult(ej, ek)):
                return False
        return True

    def __repr__(self):
        return f"ArtinAlgebra(dim={self.dim}, ideal={self.ideal!r})"


class LocalFactor:
    """One local factor of an ArtinAlgebra: an ideal direct summand with its
    identity idempotent."""

    def __init__(self, algebra: ArtinAlgebra, basis_vectors, idempotent):
        self.algebra = algebra
        self.basis_vectors = basis_vectors  # ambient coordinates, one per factor basis elt
        self.idempotent = idempotent
        self.dim = len(basis_vectors)
        self._is_full = self.dim == algebra.dim and all(
            v == linalg.unit_vector(algebra.dim, i) for i, v in enumerate(basis_vectors)
        )
        self._solver = None if self._is_full else linalg.ColumnSolver(basis_vectors)

    def restrict(self, ambient_matrix) -> list[list[Fraction]]:
        """Restriction of an ambient multiplication operator to the factor,
        in factor coordinates."""
        if self._is_full:
            return [row[:] for row in ambient_matrix]
        cols = []
        for v in self.basis_vectors:
            w = linalg.mat_vec(ambient_matrix, v)
            c = self._solver.solve(w)
            if c is None:
                raise RuntimeError("factor subspace is not invariant")
            cols.append(c)
        return linalg.from_columns(cols)

    def to_factor_coords(self, ambient_vector):
        if self._is_full:
            return ambient_vector[:]
        c = self._solver.solve(ambient_vector)
        if c is None:
            raise ValueError("vector outside the factor")
        return c

    def to_ambient(self, factor_vector):
        out = [Fraction(0)] * len(self.idempotent)
        for c, b in zip(factor_vector, self.basis_vectors):
            if c != 0:
                for i, x in enumerate(b):
                    out[i] += c * x
        return out

    def radical_basis_factor(self) -> list[list[Fraction]]:
        """Radical of the factor, in factor coordinates.

        For an ideal direct summand the radical is the intersection with the
        ambient radical, so one subspace intersection suffices."""
        n = self.dim
        if n == 0:
            return []
        ambient_rad = self.algebra.radical_basis()
        if not ambient_rad:
            return []
        if n == self.algebra.dim:
            return [self.to_factor_coords(v) for v in ambient_rad]
        # solve Rad * u = B * v; the v-parts form a factor-coordinate basis
        stacked = linalg.from_columns(
            ambient_rad + [[-c for c in b] for b in self.basis_vectors]
        )
        kernel = linalg.nullspace(stacked)
        return [v[len(ambient_rad):] for v in kernel]

    @property
    def residue_dim(self) -> int:
        return self.dim - len(self.radical_basis_factor())

    def __repr__(self):
        return f"LocalFactor(dim={self.dim})"


def _candidate_elements(algebra: ArtinAlgebra, seed: int, extra: int):
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


def decompose_local(algebra: ArtinAlgebra, seed: int = 0,
                    extra_trials: int = 10) -> list[LocalFactor]:
    """Complete orthogonal idempotent decomposition into local factors.

    Exactness of the idempotent identities (e^2 = e, pairwise products zero,
    sum = 1) is asserted on every run.
    """
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
        parts = univar.coprime_factorization(minpoly_ss)
        if len(parts) < 2:
            if univar.deg(minpoly_ss) == r:
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


def _assert_idempotent_system(algebra, factors):
    total = [Fraction(0)] * algebra.dim
    for f in factors:
        e = f.idempotent
        if algebra.mult(e, e) != e:
            raise RuntimeError("idempotent fails e^2 = e")
        total = [a + b for a, b in zip(total, e)]
    for i, f in enumerate(factors):
        for g in factors[i + 1:]:
            prod = algebra.mult(f.idempotent, g.idempotent)
            if any(c != 0 for c in prod):
                raise RuntimeError("idempotents are not orthogonal")
    if total != algebra.one():
        raise RuntimeError("idempotents do not sum to 1")
    if sum(f.dim for f in factors) != algebra.dim:
        raise RuntimeError("factor dimensions do not sum to the algebra dimension")

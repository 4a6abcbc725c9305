"""Finite-dimensional commutative algebras and their local decomposition.

An ArtinAlgebra is a quotient Q[vars]/I for a zero-dimensional ideal I,
presented by its standard-monomial basis and multiplication data.  The
decomposition into local factors tries candidate elements a of each factor:
first the images of the ring variables, then seeded random combinations of
them.  The minimal polynomial mu of a factors completely over Q (see
univar); if mu = prod q_i^m_i has two or more distinct prime factors, the
CRT idempotents e_i(t) (e_i = 1 mod q_i^m_i, 0 mod the other prime powers)
evaluated at a split the factor into the images of the e_i(a).  If mu is a
power of one irreducible q of degree equal to the residue dimension, the
semisimple quotient is the field Q[t]/(q) and the factor is certified
local.  Over an infinite field a generic combination does one or the
other; a factor where every candidate fails both raises RuntimeError
rather than being returned as local.

The Jacobson radical is computed from the trace form, which in
characteristic zero has the radical as its kernel; residue-field
dimensions follow without any factorization.
"""

from __future__ import annotations

import functools
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
        self._span = None  # built on the first solve; a full factor needs none
        self._radical: list | None = None

    def _coords(self, ambient_vector):
        if self._span is None:
            self._span = linalg.Subspace(self.algebra.dim, self.basis_vectors)
        return self._span.coords(ambient_vector)

    def restrict(self, ambient_matrix) -> list[list[Fraction]]:
        """Restriction of an ambient multiplication operator to the factor,
        in factor coordinates."""
        if self._is_full:
            return [row[:] for row in ambient_matrix]
        cols = []
        for v in self.basis_vectors:
            c = self._coords(linalg.mat_vec(ambient_matrix, v))
            if c is None:
                raise RuntimeError("factor subspace is not invariant")
            cols.append(c)
        return linalg.from_columns(cols)

    def to_factor_coords(self, ambient_vector):
        if self._is_full:
            return ambient_vector[:]
        c = self._coords(ambient_vector)
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
        """Radical of the factor, in factor coordinates, computed once.

        For an ideal direct summand the radical is the intersection with the
        ambient radical, so one subspace intersection suffices."""
        if self._radical is None:
            self._radical = self._intersect_radical()
        return self._radical

    def _intersect_radical(self) -> list[list[Fraction]]:
        ambient_rad = self.algebra.radical_basis()
        if self.dim == 0 or not ambient_rad:
            return []
        if self.dim == self.algebra.dim:
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


def _candidate_combinations(nvars: int, seed: int, extra: int):
    """Coefficients of candidate elements over the ring variables: each
    variable alone, then seeded random small combinations."""
    for i in range(nvars):
        yield [int(i == j) for j in range(nvars)]
    rng = random.Random(seed)
    for _ in range(extra):
        yield [rng.randint(-3, 3) for _ in range(nvars)]


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


def _try_split(algebra, factor: LocalFactor, seed, extra_trials):
    """Split the factor along the CRT idempotents of the first candidate
    whose minimal polynomial has two coprime prime-power parts; None when
    the factor is certified local.  Raises RuntimeError when the candidates
    run out without either."""
    k = factor.dim
    if k == 1:
        return None
    r = k - len(factor.radical_basis_factor())
    if r == 1:
        return None  # residue field Q: already local
    one_factor = factor.to_factor_coords(factor.idempotent)
    # on the factor, multiplication by a candidate c agrees with
    # multiplication by its component e*c
    var_actions = [factor.restrict(x) for x in algebra.var_matrices]
    basis = linalg.from_columns(factor.basis_vectors)
    for coeffs in _candidate_combinations(len(algebra.vars), seed, extra_trials):
        m = linalg.zeros(k, k)
        for c, x in zip(coeffs, var_actions):
            if c:
                m = linalg.mat_add(m, linalg.mat_scale(x, c))
        # in a commutative algebra the minimal polynomial of multiplication
        # by a is the annihilator of 1 under it
        mu = linalg.minimal_polynomial_of_vector(m, one_factor)
        parts = univar.coprime_factorization(mu)
        if len(parts) == 1:
            if univar.deg(parts[0][0]) == r:
                # the semisimple quotient is Q[t]/(q) of full degree: a field
                return None
            continue
        moduli = [functools.reduce(univar.mul, [q] * mult) for q, mult in parts]
        pieces = []
        for e in univar.crt_idempotents(moduli):
            # e(a) * 1 by Horner on vectors; the block is the kernel of
            # multiplication by 1 - e(a), the image of the idempotent
            e_factor = [Fraction(0)] * k
            for c in reversed(e):
                e_factor = linalg.mat_vec(m, e_factor)
                e_factor = [x + c * y for x, y in zip(e_factor, one_factor)]
            e_ambient = factor.to_ambient(e_factor)
            complement = [a - b for a, b in zip(factor.idempotent, e_ambient)]
            block = linalg.nullspace(factor.restrict(algebra.mult_matrix(complement)))
            # ambient coordinates of the block basis: basis * block
            ambient = linalg.mat_mul(basis, linalg.from_columns(block))
            pieces.append((linalg.columns(ambient), e_ambient))
        if sum(len(b) for b, _ in pieces) != k:
            raise RuntimeError("idempotent split lost dimensions")
        return pieces
    raise RuntimeError(
        f"no split certified for a factor of dimension {k} with residue dimension {r} "
        f"after {len(algebra.vars) + extra_trials} candidates")


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

"""Finite-dimensional commutative algebras and their local decomposition.

An ArtinAlgebra is a quotient Q[vars]/I for a zero-dimensional ideal I,
presented by its standard-monomial basis and multiplication data.  A local
factor is eA for its idempotent e, and the decomposition A = (+) e_i A
runs in the coordinates of A throughout.  Each factor eA is split by
candidate elements a acting on A: first the images of the ring variables,
then seeded random combinations of them.  A is commutative, so p(a) kills
eA exactly when p(a) e = 0: the minimal polynomial mu of multiplication
by a on eA is the annihilator of e.  mu factors completely over Q (see
univar); if mu = prod q_i^m_i has two or more distinct prime factors, the
CRT idempotents c_i(t) (c_i = 1 mod q_i^m_i, 0 mod the other prime powers)
give the idempotents e_i = c_i(a) e, and e_i A is spanned by the products
of e_i with a basis of eA; each factor keeps the echelon basis of its span
in primitive integer rows (for A, the unit vectors).  If mu is a power of
one irreducible q of degree equal to the residue dimension, the semisimple
quotient is the field Q[t]/(q) and the factor is certified local.  Over an
infinite field a generic combination does one or the other; a factor where
every candidate fails both raises RuntimeError rather than being returned
as local.  A piece inherits what its split proved: when the prime degrees
deg q_i add up to the residue dimension of eA, each e_i A is local with
residue dimension deg q_i; otherwise it resumes at the next candidate,
certified local at once if its residue dimension is the degree of a prime
that an earlier candidate gave on it (proofs in `decompose_local`).  The
answer is checked on every run by e_i^2 = e_i, sum e_i = 1 and the factor
dimensions adding up; orthogonality follows, so k factors cost k products
(proof in `_assert_idempotent_system`).

The structure constants are one integer tensor over one common
denominator: the coordinates of b_i * b_j are tensor[i][j] / den.  It is
built from the multiplication matrices X_k of the variables.  Column j of
X_k is the normal form of x_k * b_j: a unit vector when that monomial is
standard, and otherwise (a border monomial) made by recurrence over the
border in increasing grevlex order, with no reduction: a head of the
reduced Groebner basis is minus its tail over its head coefficient, and
any other border monomial is x_j nf(x^(e - e_j)) for a border monomial
x^(e - e_j) (Kreuzer and Robbiano, Computational Commutative Algebra 2,
sec. 6.4; the argument is in `_variable_columns`).  The standard
monomials form an order ideal, so every product b_i * b_j = x^e of degree
two or more follows from a product of lower degree, nf(x^e) = X_k
nf(x^(e - e_k)) for any k with e_k > 0, memoised by exponent.  Products
and the trace form read the tensor directly, and multiplication matrices
combine the basis ones, which `linalg.MatrixFamily` holds over the
tensor's denominator.
Every matrix, the variables' included, is held once, as integer rows over
one denominator (see linalg), and so are the restrictions to a factor;
Fractions appear only in `table`, `mult` and idempotents.

The Jacobson radical is computed from the trace form, which in
characteristic zero has the radical as its kernel; residue-field
dimensions follow without any factorization, from Rad(eA) = eA cap Rad(A):
dim A - dim Rad A for A itself, and for a factor the rank of its basis
modulo the one echelon form of Rad A that the algebra keeps.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import gcd, lcm

from . import linalg, univar
from .groebner import Ideal, standard_monomials
from .poly import GREVLEX, SparsePoly


def _shift(e: tuple, k: int, step: int) -> tuple:
    """The exponent e with step added at position k."""
    return e[:k] + (e[k] + step,) + e[k + 1:]


class ArtinAlgebra:
    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.vars = ideal.vars
        self.basis = standard_monomials(ideal)  # raises if not 0-dim
        self.dim = len(self.basis)
        self._pos = {e: i for i, e in enumerate(self.basis)}
        var_cols, var_den = self._variable_columns()
        self._vars = []  # scaled: (integer rows, var_den)
        for cols in var_cols:
            m = linalg.zeros(self.dim, self.dim)
            for j, col in enumerate(cols):
                for r, c in col:
                    m[r][j] = c
            self._vars.append((m, var_den))
        self._den, self._tensor = self._structure_tensor(var_cols, var_den)
        # trace of multiplication by basis_k, times den
        self._traces = [sum(self._tensor[k][j][j] for j in range(self.dim))
                        for k in range(self.dim)]
        self._radical: list | None = None

    @classmethod
    def from_presentation(cls, variables, generators):
        return cls(Ideal(variables, list(generators)))

    # ---------- structure tensor ----------

    def _variable_columns(self):
        """The columns of the variable multiplication matrices over one
        common denominator: cols[k][j] lists the nonzero (row, numerator)
        of nf(x_k * b_j).

        The border monomials x_k * b_j outside the basis get their normal
        forms by recurrence, in increasing grevlex order, with no
        reduction.  A head of the reduced basis is minus its tail over its
        head coefficient: the tail is standard.  Any other border monomial
        x^e = x_i * b, b standard, is a proper multiple of a head h, so
        some j has e_j > h_j, and h divides x^(e - e_j).  Then j != i, as b
        is standard, so x^(e - e_j) = x_i * (b / x_j) is again a border
        monomial, below x^e, and nf(x^e) = x_j * nf(x^(e - e_j)).  Each
        x_j * x^s this needs has x^s standard and below x^(e - e_j), so it
        is standard or a border monomial below x^e, already known."""
        n, pos = len(self.vars), self._pos
        shifted = [[_shift(b, k, 1) for b in self.basis] for k in range(n)]
        heads = {g.leading_term()[0]: g for g in self.ideal.groebner_basis()}
        border: dict[tuple, tuple[list[int], int]] = {}  # in lowest terms
        for e in sorted({e for row in shifted for e in row if e not in pos},
                        key=GREVLEX.key_for(n)):
            g = heads.get(e)
            if g is not None:
                lc = g.terms[e]
                tail = [0] * self.dim
                for t, c in g.terms.items():
                    if t != e:
                        tail[pos[t]] = Fraction(-c) / lc
                border[e] = linalg.integer_vector(tail)
                continue
            j = next(j for j in range(n) if e[j] and _shift(e, j, -1) in border)
            nums, d = border[_shift(e, j, -1)]
            images = [(c, _shift(self.basis[s], j, 1)) for s, c in enumerate(nums) if c]
            scale = lcm(*[border[t][1] for _, t in images if t not in pos])
            acc = [0] * self.dim
            for c, t in images:
                if t in pos:
                    acc[pos[t]] += c * scale
                else:
                    tn, td = border[t]
                    f = c * (scale // td)
                    for r, x in enumerate(tn):
                        if x:
                            acc[r] += f * x
            d *= scale
            g = gcd(d, *acc)
            border[e] = ([x // g for x in acc], d // g) if g > 1 else (acc, d)
        den = lcm(*[d for _, d in border.values()])
        cols = []
        for row in shifted:
            cols_k = []
            for e in row:
                if e in pos:
                    cols_k.append([(pos[e], den)])
                else:
                    nums, d = border[e]
                    cols_k.append([(r, x * (den // d)) for r, x in enumerate(nums) if x])
            cols.append(cols_k)
        return cols, den

    def _structure_tensor(self, var_cols, var_den):
        """The common denominator and the integer tensor of b_i * b_j.

        Normal forms (numerators, denominator) are kept by exponent and made
        in order of degree: a standard monomial is a unit vector, and x^e
        otherwise is X_k applied to x^(e - e_k) for the first k with e_k > 0,
        which is again a product of two standard monomials."""
        n = self.dim
        nf: dict[tuple, tuple[list[int], int]] = {}
        for e, i in self._pos.items():
            unit = [0] * n
            unit[i] = 1
            nf[e] = (unit, 1)
        products = {tuple(a + b for a, b in zip(ei, ej))
                    for i, ei in enumerate(self.basis) for ej in self.basis[i:]}
        for e in sorted(products - nf.keys(), key=sum):
            k = next(k for k, x in enumerate(e) if x)
            nums, d = nf[_shift(e, k, -1)]
            acc = [0] * n
            for j, x in enumerate(nums):
                if x:
                    for r, c in var_cols[k][j]:
                        acc[r] += x * c
            d *= var_den
            g = gcd(d, *acc)
            nf[e] = ([x // g for x in acc], d // g) if g > 1 else (acc, d)
        den = lcm(*[nf[e][1] for e in products])
        scaled = {}
        for e in products:
            nums, d = nf[e]
            scaled[e] = nums if d == den else [x * (den // d) for x in nums]
        tensor = [[scaled[tuple(a + b for a, b in zip(ei, ej))] for ej in self.basis]
                  for ei in self.basis]
        return den, tensor

    @functools.cached_property
    def table(self) -> list[list[list[Fraction]]]:
        """Structure constants as Fractions: table[i][j] holds the
        coordinates of basis_i * basis_j.  Built on first access."""
        return [linalg.fraction_matrix(row, self._den) for row in self._tensor]

    # ---------- vector encoding ----------

    def to_vector(self, p: SparsePoly) -> list[Fraction]:
        """Coordinates of p modulo the ideal in the standard-monomial basis."""
        nf = self.ideal.reduce(p)
        v = [0] * self.dim
        for e, c in nf.terms.items():
            v[self._pos[e]] = c
        return v

    def to_poly(self, v) -> SparsePoly:
        terms = {e: c for e, c in zip(self.basis, v, strict=True) if c != 0}
        return SparsePoly(self.vars, terms)

    def one(self) -> list[Fraction]:
        if self.dim == 0:
            return []
        return linalg.unit_vector(self.dim, self._pos[(0,) * len(self.vars)])

    def mult(self, u, v) -> list[Fraction]:
        """Coordinates of the product of the elements with coordinates u and v."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors of length {len(u)}, {len(v)} in an algebra of dimension {self.dim}")
        (nu, du), (nv, dv) = linalg.integer_vector(u), linalg.integer_vector(v)
        return linalg.fraction_vector(self._product(nu, nv), du * dv * self._den)

    def _product(self, nu: list[int], nv: list[int]) -> list[int]:
        """den times the product of the integer vectors nu and nv."""
        acc = [0] * self.dim
        for i, a in enumerate(nu):
            if a:
                row = self._tensor[i]
                for j, b in enumerate(nv):
                    if b:
                        c = a * b
                        acc = [x + c * t for x, t in zip(acc, row[j])]
        return acc

    @functools.cached_property
    def _multiplications(self) -> linalg.MatrixFamily:
        """The multiplication matrices of the basis elements: column j of
        the i-th is b_i * b_j.  Built on first use."""
        return linalg.MatrixFamily([(linalg.transpose(t), self._den) for t in self._tensor])

    # ---------- semisimplicity data ----------

    def trace_gram(self) -> list[list[int]]:
        """A positive integer multiple of the trace form's Gram matrix,
        tr(b_i * b_j), by bilinearity over the tensor: it has the same
        kernel."""
        gram = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                gram[i][j] = gram[j][i] = sum(
                    [c * t for c, t in zip(self._tensor[i][j], self._traces)])
        return gram

    def radical_basis(self) -> list[list[Fraction]]:
        """Basis of the Jacobson radical (kernel of the trace form)."""
        if self.dim == 0:
            return []
        if self._radical is None:
            self._radical = linalg.nullspace(self.trace_gram())
        return self._radical

    @functools.cached_property
    def _radical_span(self) -> linalg.Subspace:
        """Rad(A) as a Subspace of its reduced echelon rows, built once."""
        rad = self.radical_basis()
        return linalg.Subspace(self.dim, linalg.echelon_rows(rad)[0] if rad else [])

    def __repr__(self):
        return f"ArtinAlgebra(dim={self.dim}, ideal={self.ideal!r})"


class LocalFactor:
    """One local factor eA of an ArtinAlgebra A, for its identity
    idempotent e: an ideal direct summand, spanned by basis_vectors in
    ambient coordinates."""

    def __init__(self, algebra: ArtinAlgebra, basis_vectors, idempotent):
        self.algebra = algebra
        self.basis_vectors = basis_vectors
        self.idempotent = idempotent
        self.dim = len(basis_vectors)

    @functools.cached_property
    def _span(self) -> linalg.Subspace:
        return linalg.Subspace(self.algebra.dim, self.basis_vectors)

    def restrict(self, ambient_matrix, den: int = 1) -> tuple[list[list[int]], int]:
        """Restriction of ambient_matrix / den to the factor, in the
        coordinates of basis_vectors, as integer rows over one denominator.
        A matrix that is not dim x dim for the algebra raises ValueError."""
        cols = [self._span.coords(linalg.mat_vec(ambient_matrix, v)) for v in self.basis_vectors]
        if None in cols:
            raise RuntimeError("factor subspace is not invariant")
        return linalg.integer_columns(cols, den)

    @functools.cached_property
    def residue_dim(self) -> int:
        """dim eA - dim Rad(eA).  Rad(eA) = eA cap Rad(A), so this is the
        rank of the basis vectors modulo Rad(A): each is reduced against
        the algebra's one echelon form of Rad(A), with no product taken.
        `decompose_local` sets it wherever a split already proved it."""
        rad = self.algebra._radical_span
        return linalg.integer_rank([rad.project(v)[0] for v in self.basis_vectors])

    def __repr__(self):
        return f"LocalFactor(dim={self.dim})"


# seeded random combinations tried after the variables themselves
EXTRA_TRIALS = 10


def _candidate_combinations(nvars: int, seed: int):
    """Coefficients of candidate elements over the ring variables: each
    variable alone, then EXTRA_TRIALS seeded random small combinations."""
    for i in range(nvars):
        yield [int(i == j) for j in range(nvars)]
    rng = random.Random(seed)
    for _ in range(EXTRA_TRIALS):
        yield [rng.randint(-3, 3) for _ in range(nvars)]


def decompose_local(algebra: ArtinAlgebra, seed: int = 0) -> list[LocalFactor]:
    """Complete orthogonal idempotent decomposition into local factors.

    A split passes on what it proved.  Let the factor eA, of residue
    dimension r, split along candidate number a, whose minimal polynomial
    on eA is mu = prod q_i^m_i, into the pieces e_i A.
    - Sum rule: if sum deg q_i = r, every e_i A is local with residue
      dimension deg q_i, set at once.  The minimal polynomial of a on e_i A
      is q_i^m_i, so the image of a generates Q[t]/(q_i) inside e_i A / Rad,
      and the residue dimension of e_i A is at least deg q_i; residue
      dimensions add over the pieces, so equality in the sum forces it for
      each i.
    - Otherwise each piece resumes at candidate a + 1, carrying the prime
      degrees that candidates 0..a proved on it: a candidate j < a gave one
      prime power q_j^m on eA, hence a power of q_j on e_i A, and candidate a
      gives q_i^m_i.  A piece whose residue dimension is one of these degrees
      is local: a fresh start at candidate 0 would stop at that candidate,
      and any other candidate below a + 1 would be tried in vain.
    A factor's residue dimension is ranked only where the sum rule leaves
    it open (for A itself it is dim A - dim Rad A).  The order of the
    candidates, the answers and the RuntimeError of a factor where all of
    them fail are those of splitting every piece from candidate 0.
    `_assert_idempotent_system` checks the answer on every run.
    """
    if algebra.dim == 0:
        return []
    variables = linalg.MatrixFamily(algebra._vars)
    candidates = list(_candidate_combinations(len(algebra.vars), seed))
    whole = LocalFactor(algebra,
                        [linalg.unit_vector(algebra.dim, i) for i in range(algebra.dim)],
                        algebra.one())
    whole.residue_dim = algebra.dim - len(algebra.radical_basis())
    finished: list[LocalFactor] = []
    work = [(whole, 0, frozenset())]
    while work:
        factor, start, degrees = work.pop()
        split = _try_split(algebra, variables, candidates, factor, start, degrees)
        if split is None:
            finished.append(factor)
        else:
            work.extend(split)

    finished.sort(key=lambda f: (-f.dim, [str(c) for c in f.idempotent]))
    _assert_idempotent_system(algebra, finished)
    return finished


def _try_split(algebra, variables: linalg.MatrixFamily, candidates, factor: LocalFactor,
               start: int, degrees: frozenset):
    """Split the factor eA along the CRT idempotents of the first candidate
    from number start on whose minimal polynomial has two coprime
    prime-power parts, into (piece, next candidate, proven prime degrees)
    work items; None when the factor is certified local, degrees being
    those the candidates before start proved on it.  Raises RuntimeError
    when the candidates run out without either."""
    k = factor.dim
    if k == 1:
        return None
    r = factor.residue_dim
    if r == 1 or r in degrees:
        return None  # residue field Q, or Q[t]/(q) for a proven prime q of degree r
    e = factor.idempotent
    basis = linalg.transpose(factor.basis_vectors)
    proven = degrees
    for index in range(start, len(candidates)):
        m, den = variables.combine(candidates[index])
        # a = m / den; p(a) kills eA iff p(a) e = 0, so the minimal
        # polynomial of multiplication by a on eA is the annihilator of e
        mu = linalg.annihilator(m, e, den)
        parts = univar.coprime_factorization(mu)
        if len(parts) == 1:
            if univar.deg(parts[0][0]) == r:
                # the semisimple quotient is Q[t]/(q) of full degree: a field
                return None
            proven |= {univar.deg(parts[0][0])}
            continue
        moduli = [functools.reduce(univar.mul, [q] * mult) for q, mult in parts]
        pieces = []
        for c in univar.crt_idempotents(moduli):
            # e_i = c(a) e, and e_i A = e_i (eA) is spanned by the e_i b_j
            e_i = linalg.poly_apply(c, m, e, den)
            # the images span e_i A up to one scalar; kept as the echelon basis
            # of their span in primitive integer rows, sparser for later products
            images = linalg.mat_mul(algebra._multiplications.combine(e_i)[0], basis)
            rows = linalg.echelon_rows(linalg.transpose(images))[0]
            pieces.append(LocalFactor(algebra, rows, e_i))
        if sum(piece.dim for piece in pieces) != k:
            raise RuntimeError("idempotent split lost dimensions")
        prime_degrees = [univar.deg(q) for q, _ in parts]
        if sum(prime_degrees) == r:
            for piece, d in zip(pieces, prime_degrees):
                piece.residue_dim = d  # the sum rule
        return [(piece, index + 1, proven | {d})
                for piece, d in zip(pieces, prime_degrees)]
    raise RuntimeError(
        f"no split certified for a factor of dimension {k} with residue dimension {r} "
        f"after {len(algebra.vars) + EXTRA_TRIALS} candidates")


def _assert_idempotent_system(algebra, factors):
    """Refuse factors whose idempotents fail e_i^2 = e_i or sum e_i = 1,
    or whose dimensions do not add up to dim A.  The squares are taken on
    integers: with e = n / d, e^2 = e is n n = d den n.

    Orthogonality follows, so no product e_i e_j is taken.  From e_i =
    e_i sum_j e_j = e_i^2 + sum_{j != i} e_i e_j, the sum over j != i of
    e_i e_j is 0.  Each e_i e_j is idempotent, as A is commutative, so the
    trace of its multiplication matrix is that matrix's rank, >= 0 over Q.
    Traces add, and a zero sum of ranks forces every rank, hence every
    e_i e_j = (e_i e_j) 1, to be 0."""
    for f in factors:
        n, d = linalg.integer_vector(f.idempotent)
        if algebra._product(n, n) != [x * d * algebra._den for x in n]:
            raise RuntimeError("idempotent fails e^2 = e")
    if [sum(col) for col in zip(*[f.idempotent for f in factors])] != algebra.one():
        raise RuntimeError("idempotents do not sum to 1")
    if sum(f.dim for f in factors) != algebra.dim:
        raise RuntimeError("factor dimensions do not sum to the algebra dimension")

"""Injective hulls at desk scale.

The main objects are module-finite free extensions S of R = Q[x] along a
curve (S = Q[y] with x |-> f(y), or S = Q[x,y]/(h) with h monic in y),
together with a maximal ideal of S.  Two independent computations meet
here: the hull multiplicity through the primary decomposition of nu*S
(local factors of an Artinian algebra), and a brute-force socle-growth
count inside a truncated dual model of the hull.  Their agreement is the
content of the main multiplicity formula.

Hull models use Matlis-dual bookkeeping only: the truncated hull is the
dual of S/m^B, with (0 : nu^k) dimensions read off as corank of matrix
powers.  Module, hull and nu actions are held once, as integer rows over
one denominator (see linalg), and socles, spans, ranks and certificates
are computed on them; Fractions appear only in values handed out:
`action_of_vector`, `monomial_action` and `nu_dense`.  Base rings with
more than one variable are deliberately not supported; the one-variable
case already exercises multiplicity, socle growth, and residue-field
extensions, and higher-dimensional bases add representation cost without
new structural content.  A truncation above MAX_TRUNCATION is refused.

Associated primes of finite R-modules are computed, never assumed: over
Q[x] a prime is recorded by the dense coefficient tuple of its monic
generator.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from . import linalg, univar
from .artin import ArtinAlgebra, LocalFactor, decompose_local
from .groebner import Ideal, ideal_power
from .poly import SparsePoly


class FactorNotFoundError(RuntimeError):
    """No unique local factor matches the given maximal ideal."""


class TruncationError(ValueError):
    """The truncation level is outside 1..MAX_TRUNCATION or too low for the socle depth."""


class NotMaximalError(ValueError):
    """The given ideal of S is not maximal (S/m is not a field)."""


# the variable of the base R = Q[x] and the one the extension adjoins
BASE_VAR, EXT_VAR = "x", "y"

# the deepest truncated hull (x -> y^2 at (y) to depth 60: 0.5 s on a 2-cpu x86_64)
MAX_TRUNCATION = 120


class CurveExtension:
    """A module-finite free extension of R = Q[x] with a maximal ideal.

    The variables are fixed: x for the base, y for the extension.
    Map style: S = Q[y], structural map x |-> f(y) with f nonconstant.
    Relation style: S = Q[x,y]/(h) with h monic in y.
    The maximal ideal is given by generators in the variables of S; its
    maximality is verified on construction (S/m zero-dimensional, radical
    zero, and a single local factor), and nu, the monic generator of
    m cap R, is computed there from S/m.  S/nu*S and its local factors are
    built once, on first use.
    """

    def __init__(self, structural_map: SparsePoly | None = None,
                 relation: SparsePoly | None = None,
                 maximal_ideal: list[SparsePoly] | None = None):
        if (structural_map is None) == (relation is None):
            raise ValueError("give exactly one of structural_map or relation")
        if structural_map is not None:
            self.style = "map"
            if structural_map.vars != (EXT_VAR,):
                raise ValueError(f"structural map must live in Q[{EXT_VAR}]")
            if structural_map.total_degree() < 1:
                raise ValueError("structural map must be nonconstant")
            self.f = structural_map
            self.relation = None
            self.s_vars = (EXT_VAR,)
        else:
            self.style = "relation"
            if relation.vars != (BASE_VAR, EXT_VAR):
                raise ValueError(f"relation must live in Q[{BASE_VAR},{EXT_VAR}]")
            d = relation.degree_in(1)
            if d < 1 or {e: c for e, c in relation.terms.items() if e[1] == d} != {(0, d): 1}:
                raise ValueError("relation must be monic in the extension variable")
            self.relation = relation
            self.f = None
            self.s_vars = (BASE_VAR, EXT_VAR)
        if not maximal_ideal:
            raise ValueError("a maximal ideal is required")
        for g in maximal_ideal:
            if g.vars != self.s_vars:
                raise ValueError("maximal ideal generator over the wrong ring")
        self.maximal_ideal = list(maximal_ideal)
        A = self.residue_field_algebra()
        # m cap R = (nu) for the minimal polynomial nu of x in the field S/m:
        # for the action M_x = X / d of x, p(M_x) 1 = p(x), and p(x) = 0 makes
        # p(M_x) = 0, so nu is the annihilator of 1, one Krylov sequence
        x_action, d = A._multiplications.combine(A.to_vector(self.x_image()))
        self._nu = linalg.annihilator(x_action, A.one(), d)

    # ---------- quotients of S ----------

    def quotient_algebra(self, extra_generators: list[SparsePoly]) -> ArtinAlgebra:
        gens = list(extra_generators)
        if self.style == "relation":
            gens = gens + [self.relation]
        return ArtinAlgebra(Ideal(self.s_vars, gens))

    def x_image(self) -> SparsePoly:
        """The image of the base variable inside S."""
        if self.style == "map":
            return self.f
        return SparsePoly.variable(self.s_vars, 0)

    def residue_field_algebra(self) -> ArtinAlgebra:
        A = self.quotient_algebra(self.maximal_ideal)
        if A.dim == 0:
            raise NotMaximalError("S/m is the zero ring")
        if A.radical_basis():
            raise NotMaximalError("S/m has nilpotents")
        if len(decompose_local(A)) != 1:
            raise NotMaximalError("S/m splits into several factors")
        return A

    # ---------- the contracted maximal ideal of R ----------

    def nu_dense(self) -> list[Fraction]:
        """Monic generator of m cap R, as dense coefficients."""
        return list(self._nu)

    def nu_poly(self) -> SparsePoly:
        return univar.to_sparse(self.nu_dense(), (BASE_VAR,))

    def nu_in_s(self) -> SparsePoly:
        """The generator of nu*S as an element of S."""
        if self.style == "map":
            # nu(f) by Horner
            return functools.reduce(lambda acc, c: acc * self.f + c, reversed(self._nu),
                                    SparsePoly.zero(self.s_vars))
        return univar.to_sparse(self._nu, self.s_vars, 0)

    @functools.cached_property
    def _nu_quotient(self) -> ArtinAlgebra:
        """S/nu*S."""
        return self.quotient_algebra([self.nu_in_s()])

    @functools.cached_property
    def _nu_factors(self) -> tuple[list[LocalFactor], int]:
        """The local factors of S/nu*S and the index of the one whose
        maximal ideal pulls back into m."""
        factors = decompose_local(self._nu_quotient)
        return factors, matched_local_factor(self._nu_quotient, factors, self.maximal_ideal)

    def serialize(self) -> dict:
        out = {
            "base_var": BASE_VAR,
            "ext_var": EXT_VAR,
            "maximal_ideal": [g.to_str() for g in self.maximal_ideal],
        }
        if self.style == "map":
            out["structural_map"] = self.f.to_str()
        else:
            out["relation"] = self.relation.to_str()
        return out

    def __repr__(self):
        if self.style == "map":
            return (f"CurveExtension({BASE_VAR} -> {self.f.to_str()}, "
                    f"m = ({', '.join(g.to_str() for g in self.maximal_ideal)}))")
        return (f"CurveExtension({self.relation.to_str()} = 0, "
                f"m = ({', '.join(g.to_str() for g in self.maximal_ideal)}))")


# ---------- the multiplicity through the primary decomposition ----------

def matched_local_factor(algebra: ArtinAlgebra, factors: list[LocalFactor],
                         ideal_gens: list[SparsePoly]) -> int:
    """Index of the unique factor on which every generator acts singularly
    (its maximal ideal pulls back into the given ideal): g is singular on
    eA when (ge)A = g(eA) has dimension below that of eA."""
    matches = [i for i, factor in enumerate(factors) if all(
        linalg.rank(algebra._multiplications.combine(
            algebra.mult(factor.idempotent, algebra.to_vector(g)))[0]) < factor.dim
        for g in ideal_gens)]
    if len(matches) != 1:
        raise FactorNotFoundError(f"{len(matches)} local factors match the maximal ideal")
    return matches[0]


class HullMultiplicityReport:
    def __init__(self, multiplicity, nu, factor_dims, residue_dims):
        self.multiplicity = multiplicity
        self.nu = nu
        self.factor_dims = factor_dims
        self.residue_dims = residue_dims

    def __repr__(self):
        return (f"HullMultiplicityReport(c={self.multiplicity}, nu={self.nu.to_str()}, "
                f"factors={self.factor_dims})")


def hull_multiplicity(ext: CurveExtension) -> HullMultiplicityReport:
    """The number of copies of E_R(R/nu) inside E_S(S/m): the R-length of
    S/Q_1 for the m-primary component Q_1 of nu*S.

    Computed as dim_K(A_1) / dim_K(R/nu) where A_1 is the local factor of
    A = S/nu*S whose maximal ideal pulls back into m.
    """
    factors, idx = ext._nu_factors
    deg_nu = univar.deg(ext._nu)
    dim_a1 = factors[idx].dim
    if dim_a1 % deg_nu != 0:
        raise RuntimeError("local factor dimension not divisible by deg(nu)")
    return HullMultiplicityReport(
        multiplicity=dim_a1 // deg_nu,
        nu=ext.nu_poly(),
        factor_dims=[f.dim for f in factors],
        residue_dims=[f.residue_dim for f in factors],
    )


# ---------- the truncated hull and the socle-growth oracle ----------

class TruncatedHull:
    """The dual of S/m^B as a model of (0 :_E m^B) inside E = E_S(S/m).

    Annihilator dimensions are Matlis-dual coranks: dim(0 :_E J) equals
    dim S/m^B minus the rank of multiplication by J on S/m^B.
    """

    def __init__(self, ext: CurveExtension, truncation: int):
        if not 1 <= truncation <= MAX_TRUNCATION:
            raise TruncationError(f"truncation level {truncation} outside 1..{MAX_TRUNCATION}")
        self.ext = ext
        A = self.algebra = ext.quotient_algebra(
            ideal_power(Ideal(ext.s_vars, ext.maximal_ideal), truncation).generators)
        self.nu_action = A._multiplications.combine(A.to_vector(ext.nu_in_s()))
        self.x_action = A._multiplications.combine(A.to_vector(ext.x_image()))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def socle_dims(self, k_max: int) -> list[int]:
        """dim (0 :_E nu^k) for k = 1..k_max."""
        out = []
        nu, power = self.nu_action[0], linalg.identity(self.dim)
        for _ in range(k_max):
            # nu^k with each row scaled to a primitive integer row: its rank
            power = linalg.primitive_rows(linalg.mat_mul(power, nu))
            out.append(self.dim - linalg.integer_rank(power[:]))
        return out


def maximal_ideal_stabilization_index(ext: CurveExtension) -> int:
    """Least s with m^s * (S/nu S) = m^(s+1) * (S/nu S); by Nakayama on the
    m-primary component this is the least s with m^s inside Q_1."""
    A = ext._nu_quotient
    gen_mats = [A._multiplications.combine(A.to_vector(g))[0] for g in ext.maximal_ideal]
    current = linalg.Subspace(A.dim, [linalg.unit_vector(A.dim, i) for i in range(A.dim)])
    s = 0
    while True:
        following = linalg.Subspace(
            A.dim, [linalg.mat_vec(m, v) for m in gen_mats for v in current.basis])
        s += 1
        if following == current:
            return s - 1 if s > 1 else 1
        current = following


def socle_growth_oracle(ext: CurveExtension, k_max: int,
                        truncation: int | None = None) -> list[int]:
    """Brute-force dim (0 :_E nu^k) for k = 1..k_max inside a truncation
    deep enough that every nu^k-annihilated hull element is captured
    (m^s inside Q_1 forces (0 : nu^k) into (0 : m^(s k)))."""
    s = max(1, maximal_ideal_stabilization_index(ext))
    needed = s * k_max
    if truncation is None:
        truncation = max(12, needed)
    if truncation < needed:
        raise TruncationError(f"truncation {truncation} below the conservative bound {needed}")
    return TruncatedHull(ext, truncation).socle_dims(k_max)


# ---------- associated primes over R = Q[x] ----------

def ass_finite_x_module(x_action) -> frozenset:
    """Associated primes of a finite-dimensional Q[x]-module given by the
    action matrix of x: the irreducible factors of the minimal polynomial,
    each verified by a nonzero kernel of its evaluation."""
    n = len(x_action)
    if n == 0:
        return frozenset()
    minpoly = linalg.minimal_polynomial(x_action)
    out = set()
    for q, _ in univar.coprime_factorization(minpoly):
        if linalg.nullspace(linalg.poly_of_matrix(q, x_action)):
            out.add(tuple(q))
    return frozenset(out)


def ass_truncated_hull(hull: TruncatedHull) -> frozenset:
    """Associated primes of the truncated hull as an R-module: {nu},
    verified by nilpotency of nu and a socle witness with annihilator nu."""
    if hull.dim == 0:
        return frozenset()
    nu_action, (x_action, x_den) = hull.nu_action[0], hull.x_action
    # nilpotency, the kernel and the annihilator do not depend on the scale
    if not linalg.is_zero_matrix(linalg.mat_pow(nu_action, hull.dim)):
        raise RuntimeError("hull element not annihilated by a power of nu")
    witnesses = linalg.nullspace(linalg.transpose(nu_action))
    if not witnesses:
        raise RuntimeError("truncated hull has no socle")
    ann = linalg.annihilator(linalg.transpose(x_action), witnesses[0], x_den)
    nu = hull.ext.nu_dense()
    if ann != nu:
        raise RuntimeError("socle witness annihilator differs from nu")
    return frozenset({tuple(nu)})


# ---------- finite modules over an ArtinAlgebra and their hulls ----------

class ArtinModule:
    """A finite-dimensional module over an ArtinAlgebra, presented by the
    action matrices of the ring variables of the algebra presentation.
    Anything but one dim x dim action per variable, actions that do not
    commute, or an element of the ideal's Groebner basis that does not act
    as zero raises ValueError.  The regular module, duals, quotients and
    hulls are modules by construction and skip these costly checks.  The
    actions are held once, scaled, as (integer rows, denominator)."""

    def __init__(self, algebra: ArtinAlgebra, actions, dim: int):
        if len(actions) != len(algebra.vars) or any(
                len(m) != dim or any(len(row) != dim for row in m) for m in actions):
            raise ValueError(f"{len(algebra.vars)} actions of shape {dim}x{dim} expected, got "
                             f"{[linalg.shape(m) for m in actions]}")
        self.algebra, self.dim, self._monomials = algebra, dim, {}
        self._actions = [linalg.integer_matrix(m) for m in actions]
        for i, (a, _) in enumerate(self._actions):
            for j, (b, _) in enumerate(self._actions[:i]):
                if linalg.mat_mul(a, b) != linalg.mat_mul(b, a):
                    raise ValueError(f"the actions of {algebra.vars[j]} and {algebra.vars[i]} "
                                     "do not commute")
        gb = algebra.ideal.groebner_basis()
        monomials = sorted({e for g in gb for e in g.terms})
        actions = linalg.MatrixFamily([self._monomial(e) for e in monomials])
        for g in gb:
            if not linalg.is_zero_matrix(actions.combine([g.terms.get(e, 0) for e in monomials])[0]):
                raise ValueError(f"{g.to_str()} in the ideal does not act as zero")

    @classmethod
    def _built(cls, algebra: ArtinAlgebra, scaled, dim: int) -> "ArtinModule":
        """A module by construction from its scaled actions, unchecked."""
        module = cls.__new__(cls)
        module.algebra, module.dim, module._actions, module._monomials = algebra, dim, scaled, {}
        return module

    @classmethod
    def regular(cls, algebra: ArtinAlgebra) -> "ArtinModule":
        return cls._built(algebra, algebra._vars, algebra.dim)

    def dual(self) -> "ArtinModule":
        return ArtinModule._built(
            self.algebra, [(linalg.transpose(m), d) for m, d in self._actions], self.dim)

    def _monomial(self, exponents) -> tuple[list, int]:
        """Action of x^e in scaled form, built as x_i times the cached action
        of x^(e - e_i) for the last variable x_i in e: one product of
        integer rows per new monomial."""
        e = tuple(exponents)
        if e not in self._monomials:
            i = max((j for j, k in enumerate(e) if k), default=None)
            if i is None:
                self._monomials[e] = linalg.identity(self.dim), 1
            else:
                (m, d), (p, dp) = self._actions[i], self._monomial(e[:i] + (e[i] - 1,) + e[i + 1:])
                self._monomials[e] = linalg.mat_mul(m, p), d * dp
        return self._monomials[e]

    def monomial_action(self, exponents):
        """Action of x^e."""
        return linalg.fraction_matrix(*self._monomial(exponents))

    @functools.cached_property
    def _basis_actions(self) -> linalg.MatrixFamily:
        """The actions of the algebra's standard monomials, built on first use."""
        return linalg.MatrixFamily([self._monomial(e) for e in self.algebra.basis])

    def action_of_vector(self, v):
        """Action matrix of the algebra element with coordinate vector v (of
        length algebra.dim)."""
        return linalg.fraction_matrix(*self._basis_actions.combine(v))

    def socle(self) -> list:
        """Basis of the annihilator of the radical (the largest semisimple
        submodule)."""
        rad = self.algebra.radical_basis()
        if not rad:
            return [linalg.unit_vector(self.dim, i) for i in range(self.dim)]
        return linalg.nullspace([row for r in rad for row in self._basis_actions.combine(r)[0]])

    def submodule_closure(self, vectors) -> list:
        """Basis of the A-submodule generated by the given vectors."""
        span = linalg.Subspace(self.dim)
        frontier = [v for v in vectors if span.add(v)]
        while frontier:
            images = [linalg.mat_vec(m, v, d) for m, d in self._actions for v in frontier]
            frontier = [w for w in images if span.add(w)]
        return span.basis

    def quotient_by(self, subspace_cols) -> "ArtinModule":
        """Quotient module by an action-stable subspace; a subspace that
        some variable moves out of itself raises ValueError."""
        span = linalg.Subspace(self.dim, subspace_cols)
        if any(linalg.mat_vec(m, v) not in span for m, _ in self._actions for v in span.basis):
            raise ValueError("subspace is not stable under the action")
        # e_c lies in the span plus the later unit vectors exactly when c is
        # a pivot column, so this keeps the non-pivot unit vectors: they
        # project to the unit vectors of the quotient
        extended = linalg.Subspace(self.dim, span.basis)
        lifts = [c for c in reversed(range(self.dim))
                 if extended.add(linalg.unit_vector(self.dim, c))][::-1]
        columns = [(linalg.transpose(m), d) for m, d in self._actions]  # m e_c is column c
        return ArtinModule._built(self.algebra, [linalg.integer_columns(
            [span.project(cols[c]) for c in lifts], d) for cols, d in columns], len(lifts))


class HullResult:
    def __init__(self, module: ArtinModule, multiplicities, certificates):
        self.module = module
        self.multiplicities = multiplicities
        self.certificates = certificates


def essential_hull(algebra: ArtinAlgebra, module: ArtinModule,
                   factors: list[LocalFactor]) -> HullResult:
    """Injective hull of a finite module over an Artinian algebra, whose
    local factors (`decompose_local`) are `factors`, checked against an
    explicit essential embedding.

    The hull is the dual of a projective cover of the dual module: each
    local factor contributes its dual with multiplicity equal to the number
    of factor generators of M^dual / rad M^dual, which matches the socle
    multiplicities of M.  Certificates: the embedding is injective and
    A-linear, and soc(E) lands inside the image (essentiality).  E is
    injective by construction: each block is the K-dual of a projective
    local factor.  No span or certificate changes when a generator, a
    projection modulo the radical, or all actions of the factors' integer
    basis vectors at once, are scaled, so projections enter by their
    numerators.
    """
    if module.dim == 0:
        raise ValueError("hull of the zero module")
    A = algebra
    dual = module.dual()
    dual_action_of = functools.cache(lambda v: dual._basis_actions.combine(v)[0])
    # radical subspace of the dual module
    rad_span = linalg.Subspace(dual.dim, [col for r in A.radical_basis()
                                          for col in linalg.transpose(dual_action_of(tuple(r)))])
    top_dim = dual.dim - rad_span.dim
    # the cover F = (+)_i A_i^{d_i} -> dual, dualized: the embedding's rows
    # are the images b g of the generators g, and the hull has one block
    # per generator, on which the variables act as on its factor
    embedding, blocks, multiplicities = [], [], []
    for factor in factors:
        e_act = dual_action_of(tuple(factor.idempotent))
        # K-dimension of the factor component of dual/rad(dual)
        target_dim = linalg.Subspace(
            top_dim, [rad_span.project(col)[0] for col in linalg.transpose(e_act)]).dim
        gens = []
        covered = linalg.Subspace(top_dim)
        for candidate in linalg.transpose(e_act):
            if covered.dim >= target_dim:
                break
            if rad_span.project(candidate)[0] in covered:
                continue
            gens.append(candidate)
            # enlarge by the K-span of the A-orbit of the image
            for b in factor.basis_vectors:
                covered.add(rad_span.project(linalg.mat_vec(dual_action_of(tuple(b)), candidate))[0])
        restricted = [factor.restrict(*var) for var in A._vars]
        for g in gens:
            embedding += [linalg.mat_vec(dual_action_of(tuple(b)), g) for b in factor.basis_vectors]
            blocks.append(restricted)
        multiplicities.append(len(gens))
    if not embedding:
        raise RuntimeError("empty cover for a nonzero module")
    e_dim = len(embedding)
    hull_actions = []
    for k in range(len(A.vars)):
        # the transposed blocks down the diagonal, over their lcm
        den = lcm(*[r[k][1] for r in blocks])
        action, start = linalg.zeros(e_dim, e_dim), 0
        for b, d in (r[k] for r in blocks):
            for i, row in enumerate(linalg.transpose(b), start):
                action[i][start:start + len(row)] = [x * (den // d) for x in row]
            start += len(b)
        hull_actions.append((action, den))
    hull_module = ArtinModule._built(A, hull_actions, e_dim)

    image = linalg.Subspace(e_dim, linalg.transpose(embedding))
    certificates = {
        "embedding_injective": linalg.rank(embedding) == module.dim,
        # (h / dh) E = E (m / dm) on integers
        "embedding_linear": all(
            [[x * dm for x in row] for row in linalg.mat_mul(h, embedding)]
            == [[x * dh for x in row] for row in linalg.mat_mul(embedding, m)]
            for (h, dh), (m, dm) in zip(hull_actions, module._actions)),
        "essential": all(v in image for v in hull_module.socle()),
    }
    return HullResult(hull_module, multiplicities, certificates)


def socle_multiplicities(algebra: ArtinAlgebra, module: ArtinModule,
                         factors: list[LocalFactor]) -> list[int]:
    """Socle multiplicity of each simple (one per local factor) inside the
    module, as a cross-check against the hull block counts."""
    soc = module.socle()
    out = []
    for factor in factors:
        e_act = module._basis_actions.combine(factor.idempotent)[0]
        comp_dim = linalg.Subspace(module.dim, [linalg.mat_vec(e_act, v) for v in soc]).dim
        k_i = factor.residue_dim
        if comp_dim % k_i != 0:
            raise RuntimeError("socle component not a residue-field multiple")
        out.append(comp_dim // k_i)
    return out

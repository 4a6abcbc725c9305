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
powers.  Base rings with more than one variable are deliberately not
supported; the one-variable case already exercises multiplicity, socle
growth, and residue-field extensions, and higher-dimensional bases add
representation cost without new structural content.

Associated primes of R-modules are computed, never assumed: over Q[x] a
prime is recorded by the dense coefficient tuple of its monic generator
(the zero ideal by the empty tuple).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg, univar
from .artin import ArtinAlgebra, LocalFactor, decompose_local
from .groebner import Ideal
from .poly import SparsePoly


class FactorNotFoundError(RuntimeError):
    """No unique local factor matches the given maximal ideal."""


class TruncationError(ValueError):
    """The truncation level cannot support the requested socle depth."""


class NotMaximalError(ValueError):
    """The given ideal of S is not maximal (S/m is not a field)."""


Prime = tuple  # dense monic coefficient tuple over Q[x]; () is the zero ideal


def prime_to_str(p: Prime, var: str = "x") -> str:
    if not p:
        return "(0)"
    return "(" + univar.to_sparse(list(p), (var,)).to_str() + ")"


class CurveExtension:
    """A module-finite free extension of R = Q[x] with a maximal ideal.

    Map style: S = Q[y], structural map x |-> f(y) with f nonconstant.
    Relation style: S = Q[x,y]/(h) with h monic in y.
    The maximal ideal is given by generators in the variables of S; its
    maximality is verified on construction (S/m zero-dimensional, radical
    zero, and a single local factor).
    """

    def __init__(self, structural_map: SparsePoly | None = None,
                 relation: SparsePoly | None = None,
                 maximal_ideal: list[SparsePoly] | None = None,
                 base_var: str = "x", ext_var: str = "y",
                 check_maximal: bool = True):
        if (structural_map is None) == (relation is None):
            raise ValueError("give exactly one of structural_map or relation")
        self.base_var = base_var
        self.ext_var = ext_var
        if structural_map is not None:
            self.style = "map"
            if structural_map.vars != (ext_var,):
                raise ValueError(f"structural map must live in Q[{ext_var}]")
            if structural_map.total_degree() < 1:
                raise ValueError("structural map must be nonconstant")
            self.f = structural_map
            self.relation = None
            self.s_vars = (ext_var,)
        else:
            self.style = "relation"
            if relation.vars != (base_var, ext_var):
                raise ValueError(f"relation must live in Q[{base_var},{ext_var}]")
            d = relation.degree_in(1)
            lead = [c for e, c in relation.terms.items() if e[1] == d]
            if d < 1 or any(e[0] != 0 for e, c in relation.terms.items() if e[1] == d):
                raise ValueError("relation must be monic in the extension variable")
            if lead != [Fraction(1)]:
                raise ValueError("relation must be monic in the extension variable")
            self.relation = relation
            self.f = None
            self.s_vars = (base_var, ext_var)
        if not maximal_ideal:
            raise ValueError("a maximal ideal is required")
        for g in maximal_ideal:
            if g.vars != self.s_vars:
                raise ValueError("maximal ideal generator over the wrong ring")
        self.maximal_ideal = list(maximal_ideal)
        if check_maximal:
            self.residue_field_algebra()

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

    def rank_over_base(self) -> int:
        """The rank of S as a free R-module."""
        if self.style == "map":
            return self.f.total_degree()
        return self.relation.degree_in(1)

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
        """Monic generator of m cap R: the minimal polynomial of the image
        of x in the field S/m."""
        A = self.residue_field_algebra()
        x_bar = A.to_vector(self.x_image())
        return linalg.minimal_polynomial(A.mult_matrix(x_bar))

    def nu_poly(self) -> SparsePoly:
        return univar.to_sparse(self.nu_dense(), (self.base_var,))

    def nu_in_s(self) -> SparsePoly:
        """The generator of nu*S as an element of S."""
        n = self.nu_dense()
        if self.style == "map":
            acc = SparsePoly.zero(self.s_vars)
            fpow = SparsePoly.one(self.s_vars)
            for c in n:
                acc = acc + c * fpow
                fpow = fpow * self.f
            return acc
        return univar.to_sparse(n, self.s_vars, 0)

    def serialize(self) -> dict:
        out = {
            "base_var": self.base_var,
            "ext_var": self.ext_var,
            "maximal_ideal": [g.to_str() for g in self.maximal_ideal],
        }
        if self.style == "map":
            out["structural_map"] = self.f.to_str()
        else:
            out["relation"] = self.relation.to_str()
        return out

    def __repr__(self):
        if self.style == "map":
            return (f"CurveExtension({self.base_var} -> {self.f.to_str()}, "
                    f"m = ({', '.join(g.to_str() for g in self.maximal_ideal)}))")
        return (f"CurveExtension({self.relation.to_str()} = 0, "
                f"m = ({', '.join(g.to_str() for g in self.maximal_ideal)}))")


# ---------- the multiplicity through the primary decomposition ----------

def matched_local_factor(algebra: ArtinAlgebra, factors: list[LocalFactor],
                         ideal_gens: list[SparsePoly]) -> int:
    """Index of the unique factor on which every generator acts singularly
    (its maximal ideal pulls back into the given ideal)."""
    matches = []
    for i, factor in enumerate(factors):
        singular_all = True
        for g in ideal_gens:
            m = factor.restrict(algebra.mult_matrix(algebra.to_vector(g)))
            if linalg.rank(m) == factor.dim:
                singular_all = False
                break
        if singular_all:
            matches.append(i)
    if len(matches) != 1:
        raise FactorNotFoundError(
            f"{len(matches)} local factors match the maximal ideal"
        )
    return matches[0]


class HullMultiplicityReport:
    def __init__(self, multiplicity, nu, factor_dims, matched_index, residue_dims):
        self.multiplicity = multiplicity
        self.nu = nu
        self.factor_dims = factor_dims
        self.matched_index = matched_index
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
    nu = ext.nu_dense()
    A = ext.quotient_algebra([ext.nu_in_s()])
    factors = decompose_local(A)
    idx = matched_local_factor(A, factors, ext.maximal_ideal)
    deg_nu = univar.deg(nu)
    dim_a1 = factors[idx].dim
    if dim_a1 % deg_nu != 0:
        raise RuntimeError("local factor dimension not divisible by deg(nu)")
    return HullMultiplicityReport(
        multiplicity=dim_a1 // deg_nu,
        nu=ext.nu_poly(),
        factor_dims=[f.dim for f in factors],
        matched_index=idx,
        residue_dims=[f.residue_dim for f in factors],
    )


# ---------- the truncated hull and the socle-growth oracle ----------

def _ideal_power_gens(gens: list[SparsePoly], k: int) -> list[SparsePoly]:
    out = []
    for combo in combinations_with_replacement(gens, k):
        p = combo[0]
        for g in combo[1:]:
            p = p * g
        out.append(p)
    return out


class TruncatedHull:
    """The dual of S/m^B as a model of (0 :_E m^B) inside E = E_S(S/m).

    Annihilator dimensions are Matlis-dual coranks: dim(0 :_E J) equals
    dim S/m^B minus the rank of multiplication by J on S/m^B.
    """

    def __init__(self, ext: CurveExtension, truncation: int):
        if truncation < 1:
            raise TruncationError("truncation level must be >= 1")
        self.ext = ext
        self.truncation = truncation
        self.algebra = ext.quotient_algebra(
            _ideal_power_gens(ext.maximal_ideal, truncation)
        )
        self.nu_vector = self.algebra.to_vector(ext.nu_in_s())
        self.nu_matrix = self.algebra.mult_matrix(self.nu_vector)
        self.x_matrix = self.algebra.mult_matrix(
            self.algebra.to_vector(ext.x_image())
        )

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def x_action_on_dual(self):
        return linalg.transpose(self.x_matrix)

    def socle_dims(self, k_max: int) -> list[int]:
        """dim (0 :_E nu^k) for k = 1..k_max."""
        out = []
        power = linalg.identity(self.dim)
        for _ in range(k_max):
            power = linalg.mat_mul(power, self.nu_matrix)
            out.append(self.dim - linalg.rank(power))
        return out

    def filtration_dims(self, k_max: int) -> list[int]:
        """dim (0 :_E m^k) = dim S/m^k for k = 1..k_max (k <= truncation)."""
        out = []
        for k in range(1, k_max + 1):
            if k > self.truncation:
                raise TruncationError("k exceeds the truncation level")
            Ak = self.ext.quotient_algebra(_ideal_power_gens(self.ext.maximal_ideal, k))
            out.append(Ak.dim)
        return out


def maximal_ideal_stabilization_index(ext: CurveExtension) -> int:
    """Least s with m^s * (S/nu S) = m^(s+1) * (S/nu S); by Nakayama on the
    m-primary component this is the least s with m^s inside Q_1."""
    A = ext.quotient_algebra([ext.nu_in_s()])
    gen_mats = [A.mult_matrix(A.to_vector(g)) for g in ext.maximal_ideal]
    current = [linalg.unit_vector(A.dim, i) for i in range(A.dim)]
    s = 0
    while True:
        next_cols = []
        for m in gen_mats:
            for v in current:
                next_cols.append(linalg.mat_vec(m, v))
        next_basis = linalg.independent_columns(next_cols)
        s += 1
        if len(next_basis) == len(current) and linalg.subspace_equal(next_basis, current):
            return s - 1 if s > 1 else 1
        current = next_basis


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
        raise TruncationError(
            f"truncation {truncation} below the conservative bound {needed}"
        )
    hull = TruncatedHull(ext, truncation)
    return hull.socle_dims(k_max)


def socle_matches_primary_annihilator(ext: CurveExtension,
                                       truncation: int | None = None) -> bool:
    """Inside the truncated hull, (0 :_E nu) = (0 :_E Q_1), checked as
    equality of the subspaces nu*A_B and Q_1*A_B (double annihilators).

    Q_1 is realized as nu*S plus lifts of a basis of the non-matched local
    factors of S/nu*S.
    """
    s = max(1, maximal_ideal_stabilization_index(ext))
    if truncation is None:
        truncation = max(4, s + 1)
    A = ext.quotient_algebra([ext.nu_in_s()])
    factors = decompose_local(A)
    idx = matched_local_factor(A, factors, ext.maximal_ideal)
    hull = TruncatedHull(ext, truncation)
    AB = hull.algebra
    nu_cols = linalg.independent_columns(linalg.columns(hull.nu_matrix))
    q1_cols = list(linalg.columns(hull.nu_matrix))
    for j, factor in enumerate(factors):
        if j == idx:
            continue
        for v in factor.basis_vectors:
            lift = A.to_poly(v)  # monomial representative, lifted through S
            m = AB.mult_matrix(AB.to_vector(lift))
            q1_cols.extend(linalg.columns(m))
    q1_basis = linalg.independent_columns(q1_cols)
    return linalg.subspace_equal(nu_cols, q1_basis)


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
    power = linalg.mat_pow(hull.nu_matrix, hull.dim)
    if not linalg.is_zero_matrix(power):
        raise RuntimeError("hull element not annihilated by a power of nu")
    dual_action = hull.x_action_on_dual()
    nu_dual = linalg.transpose(hull.nu_matrix)
    witnesses = linalg.nullspace(nu_dual)
    if not witnesses:
        raise RuntimeError("truncated hull has no socle")
    ann = linalg.minimal_polynomial_of_vector(dual_action, witnesses[0])
    nu = hull.ext.nu_dense()
    if ann != nu:
        raise RuntimeError("socle witness annihilator differs from nu")
    return frozenset({tuple(nu)})


def ass_free_extension(ext: CurveExtension) -> frozenset:
    """Associated primes of S itself as an R-module: torsion-free (free of
    finite rank), so only the zero prime.  The rank is checked to be
    positive and finite."""
    if ext.rank_over_base() < 1:
        raise ValueError("extension is not module-finite free")
    return frozenset({()})


def ass_r(module) -> frozenset:
    """Associated primes over R = Q[x] of a truncated hull, a finite
    module given by its x-action matrix, or a free curve extension."""
    if isinstance(module, TruncatedHull):
        return ass_truncated_hull(module)
    if isinstance(module, CurveExtension):
        return ass_free_extension(module)
    if isinstance(module, list):
        return ass_finite_x_module(module)
    raise TypeError(f"no associated-prime computation for {type(module).__name__}")


# ---------- finite modules over an ArtinAlgebra and their hulls ----------

class ArtinModule:
    """A finite-dimensional module over an ArtinAlgebra, presented by the
    action matrices of the ring variables of the algebra presentation."""

    def __init__(self, algebra: ArtinAlgebra, var_actions, dim: int):
        self.algebra = algebra
        self.var_actions = var_actions
        self.dim = dim
        self._monomial_cache: dict[tuple, list] = {}

    @classmethod
    def regular(cls, algebra: ArtinAlgebra) -> "ArtinModule":
        return cls(algebra, [linalg.copy(m) for m in algebra.var_matrices], algebra.dim)

    def dual(self) -> "ArtinModule":
        return ArtinModule(
            self.algebra,
            [linalg.transpose(m) for m in self.var_actions],
            self.dim,
        )

    def monomial_action(self, exponents):
        e = tuple(exponents)
        if e not in self._monomial_cache:
            m = linalg.identity(self.dim)
            for i, k in enumerate(e):
                for _ in range(k):
                    m = linalg.mat_mul(self.var_actions[i], m)
            self._monomial_cache[e] = m
        return self._monomial_cache[e]

    def action_of_vector(self, v):
        """Action matrix of the algebra element with coordinate vector v."""
        out = linalg.zeros(self.dim, self.dim)
        for e, c in zip(self.algebra.basis, v):
            if c == 0:
                continue
            out = linalg.mat_add(out, linalg.mat_scale(self.monomial_action(e), c))
        return out

    def socle(self) -> list:
        """Basis of the annihilator of the radical (the largest semisimple
        submodule)."""
        rad = self.algebra.radical_basis()
        if not rad:
            return [linalg.unit_vector(self.dim, i) for i in range(self.dim)]
        return linalg.intersect_kernels(
            [self.action_of_vector(r) for r in rad], self.dim
        )

    def submodule_closure(self, vectors) -> list:
        """Basis of the A-submodule generated by the given vectors."""
        basis = linalg.independent_columns(list(vectors))
        frontier = list(basis)
        while frontier:
            new_frontier = []
            for m in self.var_actions:
                for v in frontier:
                    w = linalg.mat_vec(m, v)
                    if not linalg.column_space_contains(basis, w):
                        basis.append(w)
                        new_frontier.append(w)
            frontier = new_frontier
        return basis

    def quotient_by(self, subspace_cols) -> "ArtinModule":
        """Quotient module by an action-stable subspace."""
        ech, pivots = linalg.rref(linalg.transpose(linalg.from_columns(subspace_cols))) \
            if subspace_cols else ([], [])
        complement = [i for i in range(self.dim) if i not in pivots]

        def project(v):
            v = v[:]
            for row, p in zip(ech, pivots):
                c = v[p]
                if c != 0:
                    for i in range(self.dim):
                        v[i] -= c * row[i]
            return [v[i] for i in complement]

        new_actions = []
        for m in self.var_actions:
            cols = [project(linalg.mat_vec(m, linalg.unit_vector(self.dim, c)))
                    for c in complement]
            new_actions.append(linalg.from_columns(cols))
        return ArtinModule(self.algebra, new_actions, len(complement))


class HullResult:
    def __init__(self, module: ArtinModule, embedding, multiplicities, certificates):
        self.module = module
        self.embedding = embedding  # dim(E) x dim(M) matrix
        self.multiplicities = multiplicities
        self.certificates = certificates


def essential_hull(algebra: ArtinAlgebra, module: ArtinModule,
                   factors: list[LocalFactor] | None = None) -> HullResult:
    """Injective hull of a finite module over an Artinian algebra, with an
    explicit essential embedding.

    The hull is the dual of a projective cover of the dual module: each
    local factor contributes its dual with multiplicity equal to the number
    of factor generators of M^dual / rad M^dual, which matches the socle
    multiplicities of M.  Certificates: the embedding is injective and
    A-linear, soc(E) lands inside the image (essentiality), and each block
    satisfies the double-dual identity (injectivity by construction).
    """
    if module.dim == 0:
        raise ValueError("hull of the zero module")
    A = algebra
    if factors is None:
        factors = decompose_local(A)
    rad = A.radical_basis()
    dual = module.dual()
    # radical subspace of the dual module
    rad_cols = []
    for r in rad:
        act = dual.action_of_vector(r)
        for j in range(dual.dim):
            rad_cols.append([act[i][j] for i in range(dual.dim)])
    rad_basis = linalg.independent_columns(rad_cols)
    ech, pivots = linalg.rref(linalg.transpose(linalg.from_columns(rad_basis))) \
        if rad_basis else ([], [])
    complement = [i for i in range(dual.dim) if i not in pivots]

    def project(v):
        v = v[:]
        for row, p in zip(ech, pivots):
            c = v[p]
            if c != 0:
                for i in range(dual.dim):
                    v[i] -= c * row[i]
        return [v[i] for i in complement]

    basis_actions_on_dual = {}

    def dual_action_of(ambient_vec):
        key = tuple(ambient_vec)
        if key not in basis_actions_on_dual:
            basis_actions_on_dual[key] = dual.action_of_vector(ambient_vec)
        return basis_actions_on_dual[key]

    generators_per_factor: list[list] = []
    for factor in factors:
        e_act = dual_action_of(factor.idempotent)
        # K-dimension of the factor component of dual/rad(dual)
        comp_cols = [project(linalg.mat_vec(e_act, linalg.unit_vector(dual.dim, j)))
                     for j in range(dual.dim)]
        target_dim = len(linalg.independent_columns([c for c in comp_cols if any(c)]))
        gens = []
        covered: list = []
        for j in range(dual.dim):
            if len(covered) >= target_dim:
                break
            candidate = linalg.mat_vec(e_act, linalg.unit_vector(dual.dim, j))
            img = project(candidate)
            if not any(img) or linalg.column_space_contains(covered, img):
                continue
            gens.append(candidate)
            # enlarge by the K-span of the A-orbit of the image
            for b in factor.basis_vectors:
                w = project(linalg.mat_vec(dual_action_of(b), candidate))
                if any(w) and not linalg.column_space_contains(covered, w):
                    covered.append(w)
        generators_per_factor.append(gens)

    # assemble the cover F = (+)_i A_i^{d_i} -> dual, then dualize
    cover_cols = []
    block_actions = [[] for _ in A.var_matrices]
    for factor, gens in zip(factors, generators_per_factor):
        restricted_vars = [factor.restrict(mv) for mv in A.var_matrices]
        for g in gens:
            for b in factor.basis_vectors:
                cover_cols.append(linalg.mat_vec(dual_action_of(b), g))
            for vi, rv in enumerate(restricted_vars):
                block_actions[vi].append(rv)
    if not cover_cols:
        raise RuntimeError("empty cover for a nonzero module")
    cover = linalg.from_columns(cover_cols)
    e_dim = len(cover_cols)

    def block_diag(blocks):
        out = linalg.zeros(e_dim, e_dim)
        off = 0
        for b in blocks:
            k = len(b)
            for i in range(k):
                for j in range(k):
                    out[off + i][off + j] = b[i][j]
            off += k
        return out

    hull_actions = [linalg.transpose(block_diag(bs)) for bs in block_actions]
    hull_module = ArtinModule(A, hull_actions, e_dim)
    embedding = linalg.transpose(cover)

    certificates = {}
    certificates["embedding_injective"] = linalg.rank(embedding) == module.dim
    linearity = all(
        linalg.mat_mul(hull_actions[v], embedding)
        == linalg.mat_mul(embedding, module.var_actions[v])
        for v in range(len(A.var_matrices))
    )
    certificates["embedding_linear"] = linearity
    soc_e = hull_module.socle()
    image_cols = linalg.columns(embedding)
    certificates["essential"] = all(
        linalg.column_space_contains(image_cols, v) for v in soc_e
    )
    certificates["double_dual_identity"] = all(
        linalg.transpose(linalg.transpose(m)) == m for m in hull_actions
    )
    multiplicities = [len(g) for g in generators_per_factor]
    return HullResult(hull_module, embedding, multiplicities, certificates)


def socle_multiplicities(algebra: ArtinAlgebra, module: ArtinModule,
                         factors: list[LocalFactor]) -> list[int]:
    """Socle multiplicity of each simple (one per local factor) inside the
    module, as a cross-check against the hull block counts."""
    soc = module.socle()
    out = []
    for factor in factors:
        e_act = module.action_of_vector(factor.idempotent)
        comp = [linalg.mat_vec(e_act, v) for v in soc]
        comp = linalg.independent_columns([c for c in comp if any(c)])
        k_i = factor.residue_dim
        if len(comp) % k_i != 0:
            raise RuntimeError("socle component not a residue-field multiple")
        out.append(len(comp) // k_i)
    return out

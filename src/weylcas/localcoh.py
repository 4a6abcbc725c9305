"""Graded local cohomology of monomial ideals through Cech complexes.

Every localization R_{f_T} has multidegree pieces of dimension 0 or 1
(the piece at d is spanned by x^d when each variable outside f_T has a
non-negative exponent), so all cohomology is rank arithmetic over Q on
very small matrices, one multidegree at a time.

The Mayer-Vietoris connecting map for a pair of principal ideals is
materialized on the homotopy-fibre complex of the difference-of-
restrictions map u: C(f) (+) C(g) -> C(h), h = lcm(f, g).  The fibre has
the shifted C(h) as a degreewise direct summand, which yields a genuinely
exact long sequence

  ... -> H^t(F) -> H^t_I (+) H^t_J -> H^t_{I cap J} -> H^(t+1)(F) -> ...

with the connecting map induced by the chain inclusion c |-> (0, c); the
identification of H(F) with H_{I+J} is verified per degree against the
two-generator Cech complex as an independent oracle.  (A literal kernel
complex of u cannot carry this sequence: it lives in cohomological
degrees <= 1 while H^2_{I+J} is nonzero, and u is not piecewise
surjective, e.g. at degree (-1,-1) for f = x, g = y.)

Partial derivatives act on a localization piece by d_k . x^d =
d_k-coefficient * x^(d - e_k); the connecting map's compatibility with
these actions is checked square by square.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .groebner import Ideal, saturation
from .koszul import WindowMarginError
from .poly import SparsePoly


def _monomial_exponent(p: SparsePoly) -> tuple[int, ...]:
    if len(p.terms) != 1:
        raise ValueError(f"{p.to_str()} is not a monomial")
    return next(iter(p.terms))


def minimalize_monomials(exps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Drop every monomial divisible by another one in the list."""
    uniq = sorted(set(tuple(e) for e in exps))
    return [
        e for e in uniq
        if not any(f != e and all(f[i] <= e[i] for i in range(len(e))) for f in uniq)
    ]


def monomial_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


class CechComplex:
    """The Cech complex on monomial generators, evaluated one multidegree
    at a time."""

    def __init__(self, nvars: int, generators: list[tuple[int, ...]]):
        if not generators:
            raise ValueError("need at least one generator")
        for e in generators:
            if len(e) != nvars or all(x == 0 for x in e):
                raise ValueError(f"bad monomial exponent {e}")
        self.nvars = nvars
        self.generators = [tuple(e) for e in generators]
        self.r = len(self.generators)
        self._subsets = {t: list(combinations(range(self.r), t))
                         for t in range(self.r + 1)}
        self._support = {}
        for t, subs in self._subsets.items():
            for T in subs:
                sup = set()
                for i in T:
                    sup.update(j for j, x in enumerate(self.generators[i]) if x > 0)
                self._support[T] = frozenset(sup)

    @classmethod
    def from_polys(cls, gens: list[SparsePoly]) -> "CechComplex":
        exps = [_monomial_exponent(g) for g in gens]
        return cls(len(gens[0].vars), exps)

    def levels(self) -> int:
        return self.r + 1

    def piece_nonzero(self, T: tuple[int, ...], d: tuple[int, ...]) -> bool:
        sup = self._support[T]
        return all(x >= 0 for j, x in enumerate(d) if j not in sup)

    def piece_dims(self, t: int, d: tuple[int, ...]) -> list[int]:
        return [1 if self.piece_nonzero(T, d) else 0 for T in self._subsets[t]]

    def level_dim(self, t: int, d: tuple[int, ...]) -> int:
        return sum(self.piece_dims(t, d))

    def active_subsets(self, t: int, d: tuple[int, ...]):
        return [T for T in self._subsets[t] if self.piece_nonzero(T, d)]

    def differential(self, t: int, d: tuple[int, ...]):
        """Matrix of C^t_d -> C^(t+1)_d in the active-subset bases."""
        src = self.active_subsets(t, d)
        tgt = self.active_subsets(t + 1, d)
        tgt_pos = {T: i for i, T in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, T in enumerate(src):
            remaining = [i for i in range(self.r) if i not in T]
            for new in remaining:
                T2 = tuple(sorted(T + (new,)))
                i = tgt_pos.get(T2)
                if i is None:
                    continue
                sign = (-1) ** T2.index(new)
                mat[i][j] += sign
        return mat

    def complex_at(self, d: tuple[int, ...]):
        dims = [self.level_dim(t, d) for t in range(self.levels())]
        diffs = [self.differential(t, d) for t in range(self.levels() - 1)]
        return dims, diffs

    def cohomology_dim(self, i: int, d: tuple[int, ...]) -> int:
        if not 0 <= i <= self.r:
            raise ValueError(f"cohomological degree {i} out of range")
        dims, diffs = self.complex_at(d)
        return linalg.cohomology_dim(dims, diffs, i)


def cech_cohomology_piece(generators: list[tuple[int, ...]] | list[SparsePoly],
                          i: int, d: tuple[int, ...], nvars: int | None = None) -> int:
    if generators and isinstance(generators[0], SparsePoly):
        cech = CechComplex.from_polys(generators)
    else:
        cech = CechComplex(nvars if nvars is not None else len(d), list(generators))
    return cech.cohomology_dim(i, d)


def window_degrees(window: list[tuple[int, int]]):
    return product(*(range(lo, hi + 1) for lo, hi in window))


def mv_dimension_check(i_gens: list[tuple[int, ...]], j_gens: list[tuple[int, ...]],
                       window: list[tuple[int, int]], nvars: int | None = None) -> dict:
    """Per-degree dimensions of the four Mayer-Vietoris columns and their
    alternating sums (which vanish when the long sequence is exact)."""
    n = nvars if nvars is not None else len(window)
    sum_gens = minimalize_monomials(list(i_gens) + list(j_gens))
    cap_gens = minimalize_monomials(
        [monomial_lcm(a, b) for a in i_gens for b in j_gens]
    )
    complexes = {
        "sum": CechComplex(n, sum_gens),
        "I": CechComplex(n, list(i_gens)),
        "J": CechComplex(n, list(j_gens)),
        "cap": CechComplex(n, cap_gens),
    }
    top = max(c.r for c in complexes.values())
    per_degree = {}
    all_zero = True
    for d in window_degrees(window):
        entry = {}
        for name, cech in complexes.items():
            entry[name] = [cech.cohomology_dim(i, d) for i in range(top + 1)
                           if i <= cech.r] + [0] * (top - cech.r)
        alt = 0
        for i in range(top + 1):
            alt += (-1) ** i * (entry["sum"][i] - entry["I"][i]
                                - entry["J"][i] + entry["cap"][i])
        entry["alternating_sum"] = alt
        if alt != 0:
            all_zero = False
        per_degree[d] = entry
    return {"degrees": per_degree, "all_alternating_sums_zero": all_zero}


# ---------- cohomology pieces with induced maps ----------

class CohPiece:
    """Cohomology of a finite complex at one level, with class coordinates."""

    def __init__(self, dims, diffs, t):
        self.ambient_dim = dims[t]
        if self.ambient_dim == 0:
            self.z_cols = []
            self.h_dim = 0
            self.q_rows = []
            return
        if t < len(diffs) and len(diffs[t]) > 0:
            self.z_cols = linalg.nullspace(diffs[t])
        else:
            self.z_cols = [linalg.unit_vector(self.ambient_dim, i)
                           for i in range(self.ambient_dim)]
        b_cols = []
        if t >= 1 and dims[t - 1] > 0:
            b_cols = [v for v in linalg.columns(diffs[t - 1]) if any(v)]
        if self.z_cols:
            self._z_solver = linalg.ColumnSolver(self.z_cols)
        beta_cols = []
        for b in b_cols:
            coords = self._z_solver.solve(b)
            if coords is None:
                raise RuntimeError("boundary outside the cocycles")
            beta_cols.append(coords)
        z = len(self.z_cols)
        if beta_cols:
            beta = linalg.from_columns(beta_cols)
            self.q_rows = linalg.nullspace(linalg.transpose(beta))
        else:
            self.q_rows = [linalg.unit_vector(z, i) for i in range(z)]
        self.h_dim = len(self.q_rows)

    def class_of(self, vector):
        """H-coordinates of an ambient cocycle."""
        if self.h_dim == 0:
            return []
        coords = self._z_solver.solve(vector)
        if coords is None:
            raise RuntimeError("vector is not a cocycle")
        return [sum((q[i] * coords[i] for i in range(len(coords))), Fraction(0))
                for q in self.q_rows]


def induced_map(source: CohPiece, target: CohPiece, chain_matrix):
    """Matrix on cohomology induced by a chain map at this level, expressed
    in the canonical H-coordinates of both sides."""
    if source.h_dim == 0 or target.h_dim == 0:
        return linalg.zeros(target.h_dim, source.h_dim)
    lifts = _h_basis_lifts(source)
    source_classes = linalg.from_columns([source.class_of(z) for z in lifts])
    image_classes = linalg.from_columns(
        [target.class_of(linalg.mat_vec(chain_matrix, z)) for z in lifts]
    )
    return linalg.mat_mul(image_classes, linalg.mat_inverse(source_classes))


def _h_basis_lifts(piece: CohPiece):
    """Cocycle representatives whose classes form a basis of H."""
    lifts = []
    seen: list = []
    for zc in piece.z_cols:
        cls = piece.class_of(zc)
        if any(cls) and not linalg.column_space_contains(seen, cls):
            seen.append(cls)
            lifts.append(zc)
        if len(lifts) == piece.h_dim:
            break
    if len(lifts) != piece.h_dim:
        raise RuntimeError("failed to lift a cohomology basis")
    return lifts


# ---------- the bi-principal Mayer-Vietoris connecting map ----------

class BiPrincipalMV:
    """The full connecting-map apparatus for I = (f), J = (g)."""

    def __init__(self, f: tuple[int, ...], g: tuple[int, ...], nvars: int):
        self.nvars = nvars
        self.f = tuple(f)
        self.g = tuple(g)
        self.h = monomial_lcm(self.f, self.g)
        self.cf = CechComplex(nvars, [self.f])
        self.cg = CechComplex(nvars, [self.g])
        self.ch = CechComplex(nvars, [self.h])
        self.cfg = CechComplex(nvars, minimalize_monomials([self.f, self.g]))
        # per-degree memos: the oracle, exactness and derivative checks all
        # revisit the same degrees
        self._fibres: dict[tuple[int, ...], tuple] = {}
        self._sequences: dict[tuple[int, ...], dict] = {}

    # -- complexes at a fixed multidegree --

    def _restriction(self, src: CechComplex, t: int, d):
        """Natural map C^t(src) -> C^t(C(h)) on pieces (subset patterns of a
        principal complex match up: both have one subset per level)."""
        src_dims = src.piece_dims(t, d)
        tgt_dims = self.ch.piece_dims(t, d)
        mat = linalg.zeros(sum(tgt_dims), sum(src_dims))
        if sum(src_dims) and sum(tgt_dims):
            mat[0][0] = Fraction(1)
        return mat

    def middle_at(self, d):
        """C(f) (+) C(g) at degree d: dims and differentials."""
        f_dims = [self.cf.level_dim(t, d) for t in range(2)]
        g_dims = [self.cg.level_dim(t, d) for t in range(2)]
        dims = [f_dims[t] + g_dims[t] for t in range(2)]
        diff = linalg.block_matrix(
            [[self.cf.differential(0, d), None], [None, self.cg.differential(0, d)]],
            [f_dims[1], g_dims[1]], [f_dims[0], g_dims[0]])
        return dims, [diff]

    def u_at(self, t: int, d):
        """Difference of restrictions on level t at degree d."""
        uf = self._restriction(self.cf, t, d)
        ug = _negated(self._restriction(self.cg, t, d))
        return linalg.block_matrix([[uf, ug]], [self.ch.level_dim(t, d)],
                                   [self.cf.level_dim(t, d), self.cg.level_dim(t, d)])

    def fibre_at(self, d):
        """The homotopy fibre F of u at degree d: F^t = M^t (+) C(h)^(t-1),
        d(m, c) = (d m, u(m) - d c).  Built once per degree."""
        d = tuple(d)
        if d not in self._fibres:
            self._fibres[d] = self._build_fibre(d)
        return self._fibres[d]

    def _build_fibre(self, d):
        m_dims, m_diffs = self.middle_at(d)
        h_dims = [self.ch.level_dim(t, d) for t in range(2)]
        dims = [m_dims[0], m_dims[1] + h_dims[0], h_dims[1]]
        # d0: m |-> (d_M m, u0 m)
        d0 = linalg.block_matrix([[m_diffs[0]], [self.u_at(0, d)]],
                                 [m_dims[1], h_dims[0]], [m_dims[0]])
        # d1: (m1, c0) |-> u1 m1 - d_C c0
        minus_dc = _negated(self.ch.differential(0, d))
        d1 = linalg.block_matrix([[self.u_at(1, d), minus_dc]],
                                 [h_dims[1]], [m_dims[1], h_dims[0]])
        return dims, [d0, d1]

    # -- the long exact sequence with explicit maps --

    def sequence_at(self, d):
        """Cohomology pieces and the three induced maps at degree d.

        Returns a dict with H(F), H(M), H(C) per level and matrices for
        rho (projection), pi (difference of restrictions), delta
        (inclusion of the shifted h-complex).  Built once per degree."""
        d = tuple(d)
        if d not in self._sequences:
            self._sequences[d] = self._build_sequence(d)
        return self._sequences[d]

    def _build_sequence(self, d):
        f_dims, f_diffs = self.fibre_at(d)
        m_dims, m_diffs = self.middle_at(d)
        h_dims = [self.ch.level_dim(t, d) for t in range(2)]
        h_diffs = [self.ch.differential(0, d)]
        HF = [CohPiece(f_dims, f_diffs, t) for t in range(3)]
        HM = [CohPiece(m_dims, m_diffs, t) for t in range(2)]
        HC = [CohPiece(h_dims, h_diffs, t) for t in range(2)]
        rho, pi, delta = {}, {}, {}
        for t in range(2):
            # rho^t: F^t -> M^t, projection onto the middle block
            proj = linalg.zeros(m_dims[t], f_dims[t])
            for i in range(m_dims[t]):
                proj[i][i] = Fraction(1)
            rho[t] = induced_map(HF[t], HM[t], proj)
            # pi^t: M^t -> C^t
            pi[t] = induced_map(HM[t], HC[t], self.u_at(t, d))
            # delta^t: C^t -> F^(t+1), c |-> (0, c)
            incl = linalg.zeros(f_dims[t + 1], h_dims[t])
            offset = f_dims[t + 1] - h_dims[t]
            for i in range(h_dims[t]):
                incl[offset + i][i] = Fraction(1)
            delta[t] = induced_map(HC[t], HF[t + 1], incl)
        return {"HF": HF, "HM": HM, "HC": HC, "rho": rho, "pi": pi, "delta": delta}

    def fibre_matches_sum_cech(self, d) -> bool:
        """Oracle: H^t(F)_d equals the two-generator Cech cohomology of
        (f, g) at d, for every t."""
        f_dims, f_diffs = self.fibre_at(d)
        for t in range(3):
            hf = linalg.cohomology_dim(f_dims, f_diffs, t)
            expected = self.cfg.cohomology_dim(t, d) if t <= self.cfg.r else 0
            if hf != expected:
                return False
        return True

    def exact_at(self, d) -> bool:
        """Exactness of the six-node window of the long sequence at d."""
        seq = self.sequence_at(d)
        nodes = []
        # ... -> H^t(F) -> H^t(M) -> H^t(C) -> H^(t+1)(F) -> ...
        for t in range(2):
            prev_delta = seq["delta"][t - 1] if t >= 1 else None
            nodes.append((prev_delta, seq["HF"][t], seq["rho"][t]))
            nodes.append((seq["rho"][t], seq["HM"][t], seq["pi"][t]))
            nodes.append((seq["pi"][t], seq["HC"][t], seq["delta"][t]))
        nodes.append((seq["delta"][1], seq["HF"][2], None))
        for incoming, piece, outgoing in nodes:
            dim = piece.h_dim
            rank_in = linalg.rank(incoming) if incoming is not None else 0
            rank_out = linalg.rank(outgoing) if outgoing is not None else 0
            if incoming is not None and outgoing is not None:
                comp = linalg.mat_mul(outgoing, incoming)
                if not linalg.is_zero_matrix(comp):
                    return False
            if rank_in + rank_out != dim:
                return False
        return True

    # -- derivative actions --

    def _partial_on_cech(self, cech: CechComplex, t: int, d, k: int):
        """d_k: C^t(cech)_d -> C^t(cech)_(d - e_k), the scalar d_k on each
        matching active subset."""
        d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
        src = cech.active_subsets(t, d)
        tgt = cech.active_subsets(t, d2)
        tgt_pos = {T: i for i, T in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, T in enumerate(src):
            i = tgt_pos.get(T)
            if i is not None:
                mat[i][j] = Fraction(d[k])
        return mat

    def _partial_on_fibre(self, t, d, k):
        """d_k on F^t = C^t(f) (+) C^t(g) (+) C^(t-1)(h), block by block."""
        d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
        parts = [(c, t) for c in (self.cf, self.cg) if t <= 1]
        if t >= 1:
            parts.append((self.ch, t - 1))
        blocks = [[self._partial_on_cech(c, s, d, k) if i == j else None
                   for j, (c, s) in enumerate(parts)] for i in range(len(parts))]
        return linalg.block_matrix(blocks, [c.level_dim(s, d2) for c, s in parts],
                                   [c.level_dim(s, d) for c, s in parts])

    def delta_commutes_with_partials(self, d) -> bool:
        """delta o d_k = d_k o delta on the materialized cohomology square
        at degrees d and d - e_k, for every variable k and both levels."""
        seq_d = self.sequence_at(d)
        for k in range(self.nvars):
            d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
            seq_d2 = self.sequence_at(d2)
            for t in range(2):
                # H^t(C)_d --delta--> H^(t+1)(F)_d
                #    |d_k                  |d_k
                # H^t(C)_d2 --delta--> H^(t+1)(F)_d2
                pk_c = induced_map(seq_d["HC"][t], seq_d2["HC"][t],
                                   self._partial_on_cech(self.ch, t, d, k))
                pk_f = induced_map(seq_d["HF"][t + 1], seq_d2["HF"][t + 1],
                                   self._partial_on_fibre(t + 1, d, k))
                lhs = linalg.mat_mul(seq_d2["delta"][t], pk_c)
                rhs = linalg.mat_mul(pk_f, seq_d["delta"][t])
                rows = seq_d2["HF"][t + 1].h_dim
                cols = seq_d["HC"][t].h_dim
                if _pad(lhs, rows, cols) != _pad(rhs, rows, cols):
                    return False
        return True


def _negated(m):
    return [[-x for x in row] for row in m]


def _pad(m, rows, cols):
    """Re-inflate a matrix whose zero blocks collapsed the empty shape."""
    out = linalg.zeros(rows, cols)
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            out[i][j] = x
    return out


def mv_connecting_biprincipal(f: tuple[int, ...], g: tuple[int, ...],
                              window: list[tuple[int, int]],
                              nvars: int | None = None) -> dict:
    """Build the fibre complex for I = (f), J = (g) and verify, per degree:
    the fibre-vs-Cech oracle, exactness of the long sequence, and the
    commutation of the connecting map with every partial derivative
    (inner degrees only; the boundary shell is reported as skipped)."""
    n = nvars if nvars is not None else len(window)
    if any(hi < lo + 1 for lo, hi in window):
        raise WindowMarginError(
            "window needs at least two degrees per variable for the "
            "derivative squares"
        )
    mv = BiPrincipalMV(f, g, n)
    oracle_ok = True
    exact_ok = True
    dlin_ok = True
    skipped = []
    degrees = list(window_degrees(window))
    inner = set()
    for d in degrees:
        if all(lo < x <= hi for x, (lo, hi) in zip(d, window)):
            inner.add(d)
    for d in degrees:
        if not mv.fibre_matches_sum_cech(d):
            oracle_ok = False
        if not mv.exact_at(d):
            exact_ok = False
        if d in inner:
            if not mv.delta_commutes_with_partials(d):
                dlin_ok = False
        else:
            skipped.append(d)
    return {
        "h_oracle_matches": oracle_ok,
        "long_sequence_exact": exact_ok,
        "delta_d_linear": dlin_ok,
        "boundary_degrees_skipped": len(skipped),
        "lcm": mv.h,
    }


# ---------- torsion functors ----------

def gamma_torsion_cyclic(J: Ideal, I: Ideal) -> Ideal:
    """Gamma_I(R/J) for cyclic modules: (J : I^infinity)/J, returned as the
    saturation ideal whose image generates the torsion submodule."""
    return saturation(J, I)


def localization_piece_nonzero(f: tuple[int, ...], d: tuple[int, ...],
                               mod_r: bool = False) -> bool:
    sup = {j for j, x in enumerate(f) if x > 0}
    if not all(x >= 0 for j, x in enumerate(d) if j not in sup):
        return False
    if mod_r and all(x >= 0 for x in d):
        return False
    return True


def gamma_torsion_localization(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                               window: list[tuple[int, int]],
                               mod_r: bool = False) -> dict:
    """Per-degree torsion indicator of Gamma_I on R_f (or R_f/R).

    A basis class x^d is torsion iff some power of every generator pushes
    it to zero; in R_f itself no nonzero class is torsion (the ring is a
    domain), while in R_f/R the criterion is that every variable with a
    negative exponent divides every generator."""
    if not i_gens:
        raise ValueError("need generators")
    common = [min(g[j] for g in i_gens) for j in range(len(f))]
    out = {}
    for d in window_degrees(window):
        if not localization_piece_nonzero(f, d, mod_r):
            out[d] = 0
            continue
        if not mod_r:
            out[d] = 0  # a domain has no torsion
            continue
        negative = [j for j, x in enumerate(d) if x < 0]
        out[d] = 1 if all(common[j] > 0 for j in negative) else 0
    return out


def gamma_dstable_check(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                        window: list[tuple[int, int]],
                        mod_r: bool = False) -> dict:
    """Every partial derivative of every torsion basis class stays torsion
    (or leaves the window, which is flagged, not failed)."""
    torsion = gamma_torsion_localization(f, i_gens, window, mod_r)
    n = len(f)
    flagged = 0
    for d, is_torsion in torsion.items():
        if not is_torsion:
            continue
        for k in range(n):
            scalar = d[k]
            if scalar == 0:
                continue
            d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
            if any(not (lo <= x <= hi) for x, (lo, hi) in zip(d2, window)):
                flagged += 1
                continue
            if not localization_piece_nonzero(f, d2, mod_r):
                continue  # the image is zero in the module
            if not torsion[d2]:
                return {"stable": False, "failure": (d, k), "flagged": flagged,
                        "torsion_count": sum(torsion.values())}
    return {"stable": True, "failure": None, "flagged": flagged,
            "torsion_count": sum(torsion.values())}

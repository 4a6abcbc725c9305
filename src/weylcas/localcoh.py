"""Graded local cohomology of monomial ideals through Cech complexes,
computed once per sign pattern.

The localization R_m at a monomial m has pieces of dimension 0 or 1: the
piece at d is spanned by x^d iff the sign pattern N(d) = {j : d_j < 0}
(`koszul.negative_support`) lies inside supp(m).  So every Cech complex,
its cohomology and the Mayer-Vietoris fibres below depend on d only
through N(d) (Mustata, "Local cohomology at monomial ideals", JSC 29,
2000), and a window of degrees has at most 2^n distinct answers: each is
built once per pattern, by rank arithmetic over Q on tiny matrices.

The Mayer-Vietoris connecting map for a pair of principal ideals is
materialized on the homotopy-fibre complex of the difference-of-
restrictions map u: C(f) (+) C(g) -> C(h), h = lcm(f, g).  The fibre has
the shifted C(h) as a degreewise direct summand, which yields a genuinely
exact long sequence

  ... -> H^t(F) -> H^t_I (+) H^t_J -> H^t_{I cap J} -> H^(t+1)(F) -> ...

with the connecting map induced by the chain inclusion c |-> (0, c); the
identification of H(F) with H_{I+J} is verified per pattern against the
two-generator Cech complex as an independent oracle.  (A literal kernel
complex of u cannot carry this sequence: it lives in cohomological
degrees <= 1 while H^2_{I+J} is nonzero, and u is not piecewise
surjective, e.g. at degree (-1,-1) for f = x, g = y.)

Partial derivatives act on a localization piece by d_k . x^d =
d_k-coefficient * x^(d - e_k); the scalar d_k is the one thing a pattern
does not fix, so the connecting map's compatibility with these actions
is checked square by square at every degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .groebner import Ideal, saturation
from .koszul import WindowMarginError, negative_support
from .poly import SparsePoly


def _monomial_exponent(p: SparsePoly) -> tuple[int, ...]:
    if len(p.terms) != 1:
        raise ValueError(f"{p.to_str()} is not a monomial")
    return next(iter(p.terms))


def _pattern(d, nvars: int) -> frozenset[int]:
    """N(d) for a multidegree of a ring in nvars variables.  A vector of
    another length would alias a real pattern, so it is refused here, on
    the one path every degree and exponent takes to its pattern."""
    if len(d) != nvars:
        raise ValueError(f"got {len(d)} coordinates for a ring in {nvars} variables")
    return negative_support(d)


def _support(e, nvars: int) -> frozenset[int]:
    """supp(e) = {j : e_j > 0}, which is N(-e)."""
    return _pattern([-x for x in e], nvars)


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
    """The Cech complex on monomial generators.  Its piece at a multidegree
    d depends only on N(d), so active subsets, differentials and
    cohomology are built once per pattern."""

    def __init__(self, nvars: int, generators: list[tuple[int, ...]]):
        if not generators:
            raise ValueError("need at least one generator")
        for e in generators:
            if len(e) != nvars or all(x == 0 for x in e):
                raise ValueError(f"bad monomial exponent {e}")
        self.nvars = nvars
        self.generators = [tuple(e) for e in generators]
        self.r = len(self.generators)
        self._subsets = [list(combinations(range(self.r), t)) for t in range(self.r + 1)]
        gen_supports = [_support(e, nvars) for e in self.generators]
        self._supports = {T: frozenset().union(*(gen_supports[i] for i in T))
                          for subs in self._subsets for T in subs}
        # pattern -> active subsets per level, differentials, cohomology dims
        self._patterns: dict[frozenset[int], dict] = {}

    def piece_nonzero(self, T: tuple[int, ...], N: frozenset[int]) -> bool:
        """The localization at the generators in T is nonzero at pattern N."""
        return N <= self._supports[T]

    def active_subsets(self, t: int, N: frozenset[int]) -> list[tuple[int, ...]]:
        return self._at(N)["active"][t]

    def differential(self, t: int, d: tuple[int, ...]):
        """Matrix of C^t_d -> C^(t+1)_d in the active-subset bases."""
        return linalg.copy(self._at(_pattern(d, self.nvars))["diffs"][t])

    def cohomology_dim(self, i: int, d: tuple[int, ...]) -> int:
        if not 0 <= i <= self.r:
            raise ValueError(f"cohomological degree {i} out of range")
        return self._at(_pattern(d, self.nvars))["h"][i]

    def _at(self, N: frozenset[int]) -> dict:
        if N not in self._patterns:
            self._patterns[N] = self._build(N)
        return self._patterns[N]

    def _build(self, N: frozenset[int]) -> dict:
        active = [[T for T in subs if self.piece_nonzero(T, N)] for subs in self._subsets]
        diffs = [self._coboundary(active[t], active[t + 1]) for t in range(self.r)]
        dims = [len(a) for a in active]
        h = [linalg.cohomology_dim(dims, diffs, i) for i in range(self.r + 1)]
        return {"active": active, "diffs": diffs, "h": h}

    def _coboundary(self, src, tgt):
        tgt_pos = {T: i for i, T in enumerate(tgt)}
        mat = linalg.zeros(len(tgt), len(src))
        for j, T in enumerate(src):
            for new in range(self.r):
                if new in T:
                    continue
                T2 = tuple(sorted(T + (new,)))
                i = tgt_pos.get(T2)
                if i is not None:
                    mat[i][j] += (-1) ** T2.index(new)
        return mat


def cech_cohomology_piece(generators: list[tuple[int, ...]] | list[SparsePoly],
                          i: int, d: tuple[int, ...], nvars: int | None = None) -> int:
    if generators and isinstance(generators[0], SparsePoly):
        cech = CechComplex(len(generators[0].vars), [_monomial_exponent(g) for g in generators])
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
    columns = {}
    per_degree = {}
    for d in window_degrees(window):
        N = _pattern(d, n)
        if N not in columns:
            cols = {name: cech._at(N)["h"] + [0] * (top - cech.r)
                    for name, cech in complexes.items()}
            alt = sum((-1) ** i * (s - a - b + c)
                      for i, (s, a, b, c) in enumerate(zip(*cols.values())))
            columns[N] = cols, alt
        cols, alt = columns[N]
        per_degree[d] = {**{name: h[:] for name, h in cols.items()}, "alternating_sum": alt}
    return {"degrees": per_degree,
            "all_alternating_sums_zero": all(alt == 0 for _, alt in columns.values())}


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
    """The full connecting-map apparatus for I = (f), J = (g).  Fibres and
    sequences are built once per sign pattern."""

    def __init__(self, f: tuple[int, ...], g: tuple[int, ...], nvars: int):
        self.nvars = nvars
        self.f = tuple(f)
        self.g = tuple(g)
        self.h = monomial_lcm(self.f, self.g)
        self.cf = CechComplex(nvars, [self.f])
        self.cg = CechComplex(nvars, [self.g])
        self.ch = CechComplex(nvars, [self.h])
        self.cfg = CechComplex(nvars, minimalize_monomials([self.f, self.g]))
        self._fibres: dict[frozenset[int], tuple] = {}
        self._sequences: dict[frozenset[int], dict] = {}

    # -- complexes at a fixed pattern --

    def _middle(self, N):
        """C(f) (+) C(g) at pattern N: dims and differentials."""
        f_dims = [len(self.cf.active_subsets(t, N)) for t in range(2)]
        g_dims = [len(self.cg.active_subsets(t, N)) for t in range(2)]
        dims = [f_dims[t] + g_dims[t] for t in range(2)]
        diff = linalg.block_matrix(
            [[self.cf._at(N)["diffs"][0], None], [None, self.cg._at(N)["diffs"][0]]],
            [f_dims[1], g_dims[1]], [f_dims[0], g_dims[0]])
        return dims, [diff]

    def _u(self, t: int, N):
        """Difference of restrictions C^t(f) (+) C^t(g) -> C^t(h) at pattern
        N.  Each principal complex has at most one active subset per level,
        and an active piece of C(f) or C(g) lies in an active one of C(h)."""
        if not self.ch.active_subsets(t, N):
            return []
        return [[Fraction(sign) for c, sign in ((self.cf, 1), (self.cg, -1))
                 if c.active_subsets(t, N)]]

    def fibre_at(self, d):
        """The homotopy fibre F of u at degree d: F^t = M^t (+) C(h)^(t-1),
        d(m, c) = (d m, u(m) - d c).  Built once per pattern N(d)."""
        return self._fibre(_pattern(d, self.nvars))

    def _fibre(self, N):
        if N not in self._fibres:
            m_dims, m_diffs = self._middle(N)
            h_dims = [len(self.ch.active_subsets(t, N)) for t in range(2)]
            dims = [m_dims[0], m_dims[1] + h_dims[0], h_dims[1]]
            # d0: m |-> (d_M m, u0 m)
            d0 = linalg.block_matrix([[m_diffs[0]], [self._u(0, N)]],
                                     [m_dims[1], h_dims[0]], [m_dims[0]])
            # d1: (m1, c0) |-> u1 m1 - d_C c0
            minus_dc = [[-x for x in row] for row in self.ch._at(N)["diffs"][0]]
            d1 = linalg.block_matrix([[self._u(1, N), minus_dc]],
                                     [h_dims[1]], [m_dims[1], h_dims[0]])
            self._fibres[N] = dims, [d0, d1]
        return self._fibres[N]

    # -- the long exact sequence with explicit maps --

    def sequence_at(self, d):
        """Cohomology pieces and the three induced maps at degree d.

        Returns a dict with H(F), H(M), H(C) per level and matrices for
        rho (projection), pi (difference of restrictions), delta
        (inclusion of the shifted h-complex).  Built once per pattern N(d)."""
        N = _pattern(d, self.nvars)
        if N not in self._sequences:
            self._sequences[N] = self._build_sequence(N)
        return self._sequences[N]

    def _build_sequence(self, N):
        f_dims, f_diffs = self._fibre(N)
        m_dims, m_diffs = self._middle(N)
        h_dims = [len(self.ch.active_subsets(t, N)) for t in range(2)]
        h_diffs = self.ch._at(N)["diffs"]
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
            pi[t] = induced_map(HM[t], HC[t], self._u(t, N))
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

    @staticmethod
    def _partial_on_cech(cech: CechComplex, t: int, N, N2, scalar):
        """d_k: C^t(cech) at pattern N -> at pattern N2 = N(d - e_k), the
        scalar d_k on each matching active subset."""
        src = cech.active_subsets(t, N)
        tgt_pos = {T: i for i, T in enumerate(cech.active_subsets(t, N2))}
        mat = linalg.zeros(len(tgt_pos), len(src))
        for j, T in enumerate(src):
            i = tgt_pos.get(T)
            if i is not None:
                mat[i][j] = scalar
        return mat

    def _partial_on_fibre(self, t, N, N2, scalar):
        """d_k on F^t = C^t(f) (+) C^t(g) (+) C^(t-1)(h), block by block."""
        parts = [(c, t) for c in (self.cf, self.cg) if t <= 1]
        if t >= 1:
            parts.append((self.ch, t - 1))
        blocks = [[self._partial_on_cech(c, s, N, N2, scalar) if i == j else None
                   for j, (c, s) in enumerate(parts)] for i in range(len(parts))]
        return linalg.block_matrix(blocks, [len(c.active_subsets(s, N2)) for c, s in parts],
                                   [len(c.active_subsets(s, N)) for c, s in parts])

    def delta_commutes_with_partials(self, d) -> bool:
        """delta o d_k = d_k o delta on the materialized cohomology square
        at degrees d and d - e_k, for every variable k and both levels."""
        N = _pattern(d, self.nvars)
        seq_d = self.sequence_at(d)
        for k in range(self.nvars):
            d2 = tuple(x - (1 if j == k else 0) for j, x in enumerate(d))
            N2 = negative_support(d2)
            seq_d2 = self.sequence_at(d2)
            scalar = Fraction(d[k])
            for t in range(2):
                # H^t(C)_d --delta--> H^(t+1)(F)_d
                #    |d_k                  |d_k
                # H^t(C)_d2 --delta--> H^(t+1)(F)_d2
                pk_c = induced_map(seq_d["HC"][t], seq_d2["HC"][t],
                                   self._partial_on_cech(self.ch, t, N, N2, scalar))
                pk_f = induced_map(seq_d["HF"][t + 1], seq_d2["HF"][t + 1],
                                   self._partial_on_fibre(t + 1, N, N2, scalar))
                lhs = linalg.mat_mul(seq_d2["delta"][t], pk_c)
                rhs = linalg.mat_mul(pk_f, seq_d["delta"][t])
                rows = seq_d2["HF"][t + 1].h_dim
                cols = seq_d["HC"][t].h_dim
                if _pad(lhs, rows, cols) != _pad(rhs, rows, cols):
                    return False
        return True


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
    """Build the fibre complex for I = (f), J = (g) and verify the
    fibre-vs-Cech oracle and exactness of the long sequence once per sign
    pattern, and the commutation of the connecting map with every partial
    derivative per degree (inner degrees only; the boundary shell is
    reported as skipped)."""
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
    skipped = 0
    patterns = set()
    for d in window_degrees(window):
        N = _pattern(d, n)
        if N not in patterns:
            patterns.add(N)
            if not mv.fibre_matches_sum_cech(d):
                oracle_ok = False
            if not mv.exact_at(d):
                exact_ok = False
        if all(lo < x <= hi for x, (lo, hi) in zip(d, window)):
            if not mv.delta_commutes_with_partials(d):
                dlin_ok = False
        else:
            skipped += 1
    return {
        "h_oracle_matches": oracle_ok,
        "long_sequence_exact": exact_ok,
        "delta_d_linear": dlin_ok,
        "boundary_degrees_skipped": skipped,
        "lcm": mv.h,
    }


# ---------- torsion functors ----------

def gamma_torsion_cyclic(J: Ideal, I: Ideal) -> Ideal:
    """Gamma_I(R/J) for cyclic modules: (J : I^infinity)/J, returned as the
    saturation ideal whose image generates the torsion submodule."""
    return saturation(J, I)


def gamma_torsion_localization(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                               window: list[tuple[int, int]],
                               mod_r: bool = False) -> dict:
    """Per-degree torsion indicator of Gamma_I on R_f (or R_f/R).

    The piece of R_f at d is nonzero iff N(d) lies in supp f; that of R_f/R
    iff moreover N(d) is nonempty.  A basis class x^d is torsion iff some
    power of every generator pushes it to zero; in R_f itself no nonzero
    class is torsion (the ring is a domain), while in R_f/R the criterion
    is that every variable with a negative exponent divides every
    generator: N(d) lies in supp g for each generator g."""
    if not i_gens:
        raise ValueError("need generators")
    n = len(f)
    # x^d is a torsion class of R_f/R iff N(d) is nonempty and lies in the
    # support of f and of every generator
    torsion_support = _support(f, n).intersection(*(_support(g, n) for g in i_gens))
    out = {}
    for d in window_degrees(window):
        N = _pattern(d, n)
        out[d] = int(mod_r and bool(N) and N <= torsion_support)
    return out


def gamma_dstable_check(f: tuple[int, ...], i_gens: list[tuple[int, ...]],
                        window: list[tuple[int, int]],
                        mod_r: bool = False) -> dict:
    """Every partial derivative of every torsion basis class stays torsion
    (or leaves the window, which is flagged, not failed)."""
    torsion = gamma_torsion_localization(f, i_gens, window, mod_r)
    n = len(f)
    supp_f = _support(f, n)
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
            N2 = _pattern(d2, n)
            if not N2 <= supp_f or (mod_r and not N2):
                continue  # the image is zero in the module
            if not torsion[d2]:
                return {"stable": False, "failure": (d, k), "flagged": flagged,
                        "torsion_count": sum(torsion.values())}
    return {"stable": True, "failure": None, "flagged": flagged,
            "torsion_count": sum(torsion.values())}

"""Graded local cohomology of monomial ideals on faces, built once per
sign pattern.

The minimal Z^n-graded injective resolution of S = Q[x_1..x_n] is
E^t = (+)_{|F| = t} E(S/P_F), P_F = (x_j : j in F) (Miller and Sturmfels,
Combinatorial Commutative Algebra, ch. 11 and 13).  At a multidegree d
the piece of E(S/P_F) is Q if F lies in the sign pattern N = N(d) =
{j : d_j < 0} (`negative_support`) and 0 otherwise, and Gamma_I keeps
E(S/P_F) iff I lies in P_F.  So H^i_I(S)_d is the level-i cohomology of
the Cech cochains on the faces

  Sigma_N(I) = {F in N : F meets supp(g) for every generator g},

an upward closed set of at most 2^|N| faces, however many generators
there are.  A window of degrees has at most 2^n distinct answers, each
built once by rank arithmetic over Q on tiny matrices.

x_j maps the piece at d to d + e_j and d_j maps x^d to d_j * x^(d - e_j),
as the identity and the scalar d_j, except x_j from d_j = -1 to 0: from
pattern N to N - {j}.  So a map built once per pattern is D-linear iff it
commutes with each such x_j (Yanagawa's straight modules, Math. Proc.
Camb. Phil. Soc. 131, 2001).  On faces that x_j is the projection that
drops the faces containing j.
"""

from __future__ import annotations

from itertools import combinations, product

from . import linalg
from .koszul import WindowMarginError


def negative_support(d) -> frozenset[int]:
    """N(d) = {j : d_j < 0}.  Whether a monomial module is nonzero at d is
    a condition on this set, so there are at most 2^n cases."""
    return frozenset(j for j, x in enumerate(d) if x < 0)


def _pattern(d, nvars: int) -> frozenset[int]:
    """N(d) for a multidegree of a ring in nvars variables.  A vector of
    another length would alias a real pattern, so it is refused here, on
    the one path every degree and exponent takes to its pattern."""
    if len(d) != nvars:
        raise ValueError(f"got {len(d)} coordinates for a ring in {nvars} variables")
    return negative_support(d)


def _support(e, nvars: int) -> frozenset[int]:
    """supp(e) = {j : e_j > 0}, which is N(-e).  Every generator exponent
    takes this path, so a negative entry, which names no monomial, is
    refused here."""
    if any(x < 0 for x in e):
        raise ValueError(f"negative entry in monomial exponent {tuple(e)}")
    return _pattern([-x for x in e], nvars)


def monomial_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coboundary(src, tgt, live=None):
    """The Cech coboundary from cochains on the faces src to the faces tgt
    one level up: F |-> sum of (-1)^k G over the G in tgt with F = G minus
    its k-th element.  With `live`, only the faces F with live(F) move."""
    col = {F: i for i, F in enumerate(src) if live is None or live(F)}
    mat = linalg.zeros(len(tgt), len(src))
    for row, G in enumerate(tgt):
        for k in range(len(G)):
            i = col.get(G[:k] + G[k + 1:])
            if i is not None:
                mat[row][i] = (-1) ** k
    return mat


def _restriction(src, tgt):
    """The 0/1 matrix from cochains on the faces src to the faces tgt that
    keeps each face in both: zero extension, or restriction."""
    col = {F: i for i, F in enumerate(src)}
    mat = linalg.zeros(len(tgt), len(src))
    for row, F in enumerate(tgt):
        if F in col:
            mat[row][col[F]] = 1
    return mat


def _face_complex(N: frozenset[int], keep, nvars: int) -> dict:
    """The faces F of N with keep(F) at levels 0..nvars, the coboundaries
    between them and the cohomology dimensions."""
    members = sorted(N)
    faces = [[F for F in combinations(members, t) if keep(F)] for t in range(len(N) + 1)]
    diffs = [_coboundary(faces[t], faces[t + 1]) for t in range(len(N))]
    dims = [len(level) for level in faces]
    ranks = [linalg.rank(m) for m in diffs]
    h = [linalg.cohomology_dim(dims, ranks, t) for t in range(len(N) + 1)]
    # no face has more than |N| elements: the levels past it are empty
    empty = [[]] * (nvars - len(N))
    return {"faces": faces + empty, "diffs": diffs + empty, "h": h + [0] * len(empty)}


class CechComplex:
    """H^i_I(S) for the ideal I of the monomial generators, on faces: its
    piece at a multidegree d is the cohomology of the face complex
    Sigma_N(I), N = N(d), which is built once per pattern."""

    def __init__(self, nvars: int, generators: list[tuple[int, ...]]):
        if not generators:
            raise ValueError("need at least one generator")
        for e in generators:
            if len(e) != nvars or all(x == 0 for x in e):
                raise ValueError(f"bad monomial exponent {e}")
        self.nvars = nvars
        self.r = len(generators)
        # only the distinct supports decide which faces are kept
        self._supports = {_support(e, nvars) for e in generators}
        # pattern -> faces per level, coboundaries, cohomology dims
        self._patterns: dict[frozenset[int], dict] = {}
        # degree -> the cohomology dims of its pattern, for callers that ask
        # for every i at each d
        self._degree_dims: dict[tuple[int, ...], list[int]] = {}

    def meets(self, F) -> bool:
        """F is a face of Sigma(I): it meets every support, so I is in P_F."""
        return all(not S.isdisjoint(F) for S in self._supports)

    def differential(self, t: int, d: tuple[int, ...]):
        """The face coboundary from level t to t + 1 at N(d), [] if t >= n."""
        if t < 0:
            raise ValueError(f"face level {t} out of range")
        diffs = self._at(_pattern(d, self.nvars))["diffs"]
        return linalg.copy(diffs[t]) if t < self.nvars else []

    def cohomology_dim(self, i: int, d: tuple[int, ...]) -> int:
        if not 0 <= i <= self.r:
            raise ValueError(f"cohomological degree {i} out of range")
        d = tuple(d)
        h = self._degree_dims.get(d)
        if h is None:
            h = self._degree_dims[d] = self._at(_pattern(d, self.nvars))["h"]
        # no face has more than n elements, so H^i = 0 for i > n
        return h[i] if i <= self.nvars else 0

    def _at(self, N: frozenset[int]) -> dict:
        if N not in self._patterns:
            self._patterns[N] = self._build(N)
        return self._patterns[N]

    def _build(self, N: frozenset[int]) -> dict:
        return _face_complex(N, self.meets, self.nvars)


def cech_cohomology_piece(generators: list[tuple[int, ...]], i: int, d: tuple[int, ...]) -> int:
    return CechComplex(len(d), list(generators)).cohomology_dim(i, d)


def window_degrees(window: list[tuple[int, int]]):
    """The degrees of a box window, lo..hi in each coordinate.  An empty
    window would pass every check vacuously, so it is refused."""
    if any(hi < lo for lo, hi in window):
        raise WindowMarginError("empty window")
    return product(*(range(lo, hi + 1) for lo, hi in window))


# ---------- cohomology pieces with induced maps ----------

class CohPiece:
    """H^t of a finite complex, Z = ker diffs[t] modulo B = im diffs[t-1].

    One `Subspace` takes the boundaries first (dimension b), then the
    cocycles that extend them: those cocycles are `lifts`, a basis of H,
    and the class of a cocycle is its coordinates past the first b."""

    def __init__(self, dims, diffs, t):
        n = dims[t]
        if t < len(diffs) and diffs[t]:
            z_cols = linalg.nullspace(diffs[t])
        else:
            z_cols = [linalg.unit_vector(n, i) for i in range(n)]
        b_cols = []
        if t >= 1 and dims[t - 1] > 0:
            b_cols = [v for v in linalg.transpose(diffs[t - 1]) if any(v)]
        self._span = linalg.Subspace(n, b_cols)
        self._b = self._span.dim
        self.lifts = [z for z in z_cols if self._span.add(z)]
        if self._span.dim != len(z_cols):
            raise RuntimeError("boundary outside the cocycles")
        self.h_dim = len(self.lifts)

    def class_of(self, vector):
        """H-coordinates of an ambient cocycle, over the classes of lifts."""
        coords = self._span.coords(vector)
        if coords is None:
            raise RuntimeError("vector is not a cocycle")
        nums, den = coords
        return linalg.fraction_vector(nums[self._b:], den)


def induced_map(source: CohPiece, target: CohPiece, chain_matrix):
    """Matrix on cohomology induced by a chain map at this level, in the
    lift bases of both sides: column j is the class of the image of the
    j-th lift of the source."""
    images = [target.class_of(linalg.mat_vec(chain_matrix, z)) for z in source.lifts]
    return [[c[i] for c in images] for i in range(target.h_dim)]


# ---------- Mayer-Vietoris on faces ----------

class MayerVietoris:
    """The Mayer-Vietoris sequence of monomial ideals I and J, per pattern N.
    P_F is prime, so Sigma_N(I + J) ("sum") is Sigma_N(I) cap Sigma_N(J)
    and Sigma_N(I cap J) ("cap") is Sigma_N(I) cup Sigma_N(J):

      ... -> H^t_{I+J} -> H^t_I (+) H^t_J -> H^t_{I cap J} -> H^(t+1)_{I+J} -> ...

    rho^t is a |-> (a, a), pi^t is (b, c) |-> b - c, and delta^t is the
    snake lemma's z |-> d(z restricted to Sigma_N(I)); delta^n is []."""

    def __init__(self, nvars: int, i_gens: list[tuple[int, ...]],
                 j_gens: list[tuple[int, ...]]):
        self.nvars = nvars
        self.I = CechComplex(nvars, list(i_gens))
        self.J = CechComplex(nvars, list(j_gens))
        self._patterns: dict[frozenset[int], dict] = {}
        self._sequences: dict[frozenset[int], dict] = {}

    def _at(self, N: frozenset[int]) -> dict:
        """The four face complexes at N, by column name."""
        if N not in self._patterns:
            I, J = self.I._at(N), self.J._at(N)
            in_i = {F for level in I["faces"] for F in level}
            in_j = {F for level in J["faces"] for F in level}
            self._patterns[N] = {
                "sum": _face_complex(N, (in_i & in_j).__contains__, self.nvars),
                "I": I,
                "J": J,
                "cap": _face_complex(N, (in_i | in_j).__contains__, self.nvars),
            }
        return self._patterns[N]

    def _sequence(self, N: frozenset[int]) -> dict:
        if N not in self._sequences:
            self._sequences[N] = self._build_sequence(N)
        return self._sequences[N]

    def _build_sequence(self, N: frozenset[int]) -> dict:
        """H^t of each complex and the matrices of rho^t, pi^t, delta^t.
        Levels past |N| have no faces: their pieces are zero and their
        maps [], and only levels 0..|N| are built."""
        cx, top = self._at(N), len(N)
        zero, empty = CohPiece([0], [], 0), [[]] * (self.nvars - top)
        H = {name: [CohPiece([len(f) for f in c["faces"]], c["diffs"], t)
                    for t in range(top + 1)] + [zero] * len(empty) for name, c in cx.items()}
        rho, pi, delta = [], [], []
        for t in range(top + 1):
            def piece_map(a, b):
                return induced_map(H[a][t], H[b][t], _restriction(cx[a]["faces"][t],
                                                                  cx[b]["faces"][t]))
            rho.append(piece_map("sum", "I") + piece_map("sum", "J"))
            pi.append([b + [-x for x in c]
                       for b, c in zip(piece_map("I", "cap"), piece_map("J", "cap"))])
            if t < top:
                # the snake lemma: lift z to (z on Sigma(I), -z on the rest)
                lift = _coboundary(cx["cap"]["faces"][t], cx["sum"]["faces"][t + 1],
                                   self.I.meets)
                delta.append(induced_map(H["cap"][t], H["sum"][t + 1], lift))
        delta.append([])
        return {"H": H, "rho": rho + empty, "pi": pi + empty, "delta": delta + empty}

    def exact_at(self, N: frozenset[int]) -> bool:
        """Exactness of the long sequence at N: at every node the maps in
        and out compose to zero and their ranks add up to its dimension.
        Past level |N| every node is zero."""
        seq = self._sequence(N)
        H, levels = seq["H"], range(len(N) + 1)
        dims = [d for t in levels
                for d in (H["sum"][t].h_dim, H["I"][t].h_dim + H["J"][t].h_dim, H["cap"][t].h_dim)]
        maps = [seq[name][t] for t in levels for name in ("rho", "pi", "delta")]
        # ranks[k] and ranks[k + 1]: the maps into and out of node k
        ranks = [0] + [linalg.rank(m) for m in maps]
        return (all(ranks[k] + ranks[k + 1] == dim for k, dim in enumerate(dims))
                and all(linalg.is_zero_matrix(linalg.mat_mul(b, a)) for a, b in zip(maps, maps[1:])))

    def delta_commutes_with_x(self, N: frozenset[int], j: int) -> bool:
        """x_j o delta = delta o x_j on the square from pattern N to
        N - {j}, j in N, at every level t:

          H^t_(I cap J) at N   --delta--> H^(t+1)_(I+J) at N
             |x_j                              |x_j
          H^t_(I cap J) at N-j --delta--> H^(t+1)_(I+J) at N-j

        compared on each basis class of the top left piece."""
        N2 = N - {j}
        cx, cx2 = self._at(N), self._at(N2)
        seq, seq2 = self._sequence(N), self._sequence(N2)

        def x_map(name, t):
            return induced_map(seq["H"][name][t], seq2["H"][name][t],
                               _restriction(cx[name]["faces"][t], cx2[name]["faces"][t]))

        # for t >= |N| the target H^(t+1) at N is zero, so both sides are;
        # at N - {j} the one at t = |N| - 1 is zero-dimensional
        for t in range(len(N)):
            x_cap, x_sum, h = x_map("cap", t), x_map("sum", t + 1), seq["H"]["cap"][t].h_dim
            for e in (linalg.unit_vector(h, i) for i in range(h)):
                if (linalg.mat_vec(seq2["delta"][t], linalg.mat_vec(x_cap, e))
                        != linalg.mat_vec(x_sum, linalg.mat_vec(seq["delta"][t], e))):
                    return False
        return True


def mv_dimension_check(i_gens: list[tuple[int, ...]], j_gens: list[tuple[int, ...]],
                       window: list[tuple[int, int]]) -> dict:
    """Per-degree dimensions of the four Mayer-Vietoris columns, H^0..H^n
    of I + J ("sum"), I, J and I cap J ("cap"), and their alternating sums
    (which vanish when the long sequence is exact).  The ring has one
    variable per window coordinate."""
    n = len(window)
    mv = MayerVietoris(n, i_gens, j_gens)
    columns = {}
    per_degree = {}
    for d in window_degrees(window):
        N = _pattern(d, n)
        if N not in columns:
            cols = {name: c["h"] for name, c in mv._at(N).items()}
            alt = sum((-1) ** i * (s - a - b + c)
                      for i, (s, a, b, c) in enumerate(zip(*cols.values())))
            columns[N] = cols, alt
        cols, alt = columns[N]
        per_degree[d] = {**{name: h[:] for name, h in cols.items()}, "alternating_sum": alt}
    return {"degrees": per_degree,
            "all_alternating_sums_zero": all(alt == 0 for _, alt in columns.values())}


def mv_connecting_biprincipal(f: tuple[int, ...], g: tuple[int, ...],
                              window: list[tuple[int, int]]) -> dict:
    """The Mayer-Vietoris sequence of I = (f), J = (g), checked at each
    pattern N of the window: its I + J column against the Cech complex of
    (f, g), exactness, and each square of delta with x_j, j in N."""
    n = len(window)
    mv = MayerVietoris(n, [f], [g])
    oracle = CechComplex(n, [f, g])
    patterns = dict.fromkeys(_pattern(d, n) for d in window_degrees(window))
    return {
        "h_oracle_matches": all([p.h_dim for p in mv._sequence(N)["H"]["sum"]]
                                == oracle._at(N)["h"] for N in patterns),
        "long_sequence_exact": all(mv.exact_at(N) for N in patterns),
        "delta_d_linear": all(mv.delta_commutes_with_x(N, j) for N in patterns for j in N),
        "lcm": monomial_lcm(f, g),
    }


# ---------- torsion functors ----------

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
    """Whether the torsion marks of `gamma_torsion_localization` behave as
    Gamma_I of the module on the window's basis classes x^d:

    - d_k of a torsion class is torsion again (d - e_k keeps the pattern);
    - x_j of a torsion class with d_j = -1 is torsion again: the step from
      pattern N to N - {j}, the only one that changes the pattern, so with
      the first the marks are a D-submodule;
    - a nonzero class that every generator x^g maps to torsion or zero is
      torsion, since I m in Gamma_I(M) gives I^(k+1) m = 0.  A D-stable set
      of patterns can still be Gamma of another ideal; this step tells them
      apart.

    A derivative or x_j step that leaves the window is flagged, not failed;
    a class with a generator image outside the window is not judged by the
    third step.  The failure is (d, step): "d<k>" or "x<j>" (1-based) for
    the first two, "I" for the third."""
    torsion = gamma_torsion_localization(f, i_gens, window, mod_r)
    n = len(f)
    supp_f = _support(f, n)
    flagged = 0

    def zero(d):
        N = _pattern(d, n)
        return not N <= supp_f or (mod_r and not N)

    def moved(d, step):
        d2 = tuple(map(sum, zip(d, step)))
        return d2 if all(lo <= x <= hi for x, (lo, hi) in zip(d2, window)) else None

    def report(failure):
        return {"stable": failure is None, "failure": failure, "flagged": flagged,
                "torsion_count": sum(torsion.values())}

    units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    for d, is_torsion in torsion.items():
        if is_torsion:
            steps = [(f"d{k + 1}", tuple(-u for u in units[k])) for k in range(n) if d[k]]
            steps += [(f"x{j + 1}", units[j]) for j in range(n) if d[j] == -1]
            for name, step in steps:
                d2 = moved(d, step)
                if d2 is None:
                    flagged += 1
                elif not zero(d2) and not torsion[d2]:
                    return report((d, name))
        elif not zero(d):
            images = [moved(d, g) for g in i_gens]
            if all(d2 is not None and (zero(d2) or torsion[d2]) for d2 in images):
                return report((d, "I"))
    return report(None)

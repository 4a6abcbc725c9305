"""Spans around the library's public functions, installed from outside.

`Tracer.install` replaces each traced function by a wrapper everywhere it
is bound: its module, every `weylcas` module and benchmark module that
imported the name, and its class (aliases such as `__radd__ = __add__`
included).  A wrapper records a span (name, start, end, parent) in memory and keeps self time
from the nesting: a span's self time is its duration minus the durations of
the spans directly inside it.  `poly.*` wrappers only count calls, because
polynomial arithmetic runs millions of times and spans there would swamp
the figures they explain.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (metric name, module, qualified name); the metric name follows
# <module>.<function> and drops dunder decoration.
SPANNED = [
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.poly_of_matrix", "linalg", "poly_of_matrix"),
    ("linalg.minimal_polynomial", "linalg", "minimal_polynomial"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.rank", "linalg", "rank"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.reduce_poly", "groebner", "reduce_poly"),
    ("groebner.s_polynomial", "groebner", "s_polynomial"),
    ("groebner.quotient_by_ideal", "groebner", "quotient_by_ideal"),
    ("groebner.intersect", "groebner", "intersect"),
    ("groebner.saturation", "groebner", "saturation"),
    ("ore.mul", "ore", "DiffOp.__mul__"),
    ("ore.to_right", "ore", "DiffOp.to_right"),
    ("ore.to_left", "ore", "DiffOp.to_left"),
    ("ore.delta", "ore", "OreRing.delta"),
    ("ore.apply", "ore", "DiffOp.apply"),
    ("ore.verify_star", "ore", "verify_star"),
    ("parser.parse_operator", "parser", "parse_operator"),
    ("parser.diffop_to_str", "parser", "diffop_to_str"),
    ("univar.coprime_factorization", "univar", "coprime_factorization"),
    ("univar.rational_roots", "univar", "rational_roots"),
    ("artin.ArtinAlgebra.init", "artin", "ArtinAlgebra.__init__"),
    ("artin.decompose_local", "artin", "decompose_local"),
    ("hulls.essential_hull", "hulls", "essential_hull"),
    ("hulls.monomial_action", "hulls", "ArtinModule.monomial_action"),
    ("hulls.socle_multiplicities", "hulls", "socle_multiplicities"),
    ("hulls.hull_multiplicity", "hulls", "hull_multiplicity"),
    ("hulls.socle_growth_oracle", "hulls", "socle_growth_oracle"),
    ("koszul.ext1_koszul", "koszul", "ext1_koszul"),
    ("koszul.koszul_h1_window", "koszul", "koszul_h1_window"),
    ("koszul.is_regular_sequence", "koszul", "is_regular_sequence"),
    ("localcoh.cohomology_dim", "localcoh", "CechComplex.cohomology_dim"),
    ("localcoh.differential", "localcoh", "CechComplex.differential"),
    ("localcoh.mv_dimension_check", "localcoh", "mv_dimension_check"),
    ("localcoh.mv_connecting_biprincipal", "localcoh", "mv_connecting_biprincipal"),
]
COUNTED = [
    ("poly.mul", "poly", "SparsePoly.__mul__"),
    ("poly.add", "poly", "SparsePoly.__add__"),
]


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _ in SPANNED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name, _, _ in COUNTED]
    out += [("linalg.mat_mul.mults", "count"), ("linalg.rref.cells", "count"),
            ("groebner.reduce_poly.zero_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
    return out


def _shape(m):
    return len(m), len(m[0]) if m else 0


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self, max_spans=50_000):
        names = [n for n, _, _ in SPANNED] + [n for n, _, _ in COUNTED]
        self.index = {n: i for i, n in enumerate(names)}
        self.names = names
        self.calls = [0] * len(names)
        self.self_s = [0.0] * len(names)
        self.mults = 0
        self.cells = 0
        self.zero_reductions = 0
        # spans kept for the dump: name index, start, end, parent span (-1: none)
        self.max_spans = max_spans
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self._stack = []  # [span id, child seconds] per open span
        self._restore = []

    # ---------- wrappers ----------

    def _spanned(self, name, fn):
        idx = self.index[name]
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook = {
            "linalg.mat_mul": self._count_mults,
            "linalg.rref": self._count_cells,
        }.get(name)
        zero_check = name == "groebner.reduce_poly"

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = [self._open_span(idx), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self._close_span(frame[0], start, end)
            if zero_check and not result.terms:
                self.zero_reductions += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        idx = self.index[name]
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_mults(self, args):
        (ra, ca), (_, cb) = _shape(args[0]), _shape(args[1])
        self.mults += ra * ca * cb

    def _count_cells(self, args):
        rows, cols = _shape(args[0])
        self.cells += rows * cols

    def _open_span(self, idx):
        if len(self.span_name) >= self.max_spans:
            self.dropped += 1
            return -1
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    def _close_span(self, span, start, end):
        if span >= 0:
            self.span_start[span] = start
            self.span_end[span] = end

    # ---------- installing ----------

    def install(self, callers=()):
        """Wrap the traced functions in every `weylcas` module and in the
        given caller modules, which may hold their own bindings."""
        modules = [m for n, m in sys.modules.items() if n == "weylcas" or n.startswith("weylcas.")]
        modules += list(callers)
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, module, qualname in table:
                mod = importlib.import_module(f"weylcas.{module}")
                owner, _, attr = qualname.rpartition(".")
                if owner:
                    cls = getattr(mod, owner)
                    original = cls.__dict__[attr]
                    wrapper = make(name, original)
                    targets = [cls]
                else:
                    original = getattr(mod, attr)
                    wrapper = make(name, original)
                    targets = modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            self._restore.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # ---------- results ----------

    def metrics(self):
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            if i < len(SPANNED):
                out[f"{name}.self_s"] = self.self_s[i]
        reductions = self.calls[self.index["groebner.reduce_poly"]]
        out["linalg.mat_mul.mults"] = self.mults
        out["linalg.rref.cells"] = self.cells
        out["groebner.reduce_poly.zero_ratio"] = (
            self.zero_reductions / reductions if reductions else 0.0)
        return out

    def dump(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.span_name), "dropped": self.dropped}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i]]) + "\n")

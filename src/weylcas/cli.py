"""Command-line front end.

Exit codes: 0 on success, 1 when a mathematical verification fails, 2 on
usage errors (bad flags, unparseable expressions).  Identical invocations
(including --seed) produce byte-identical output; --json switches to a
versioned machine-readable format ("schema": 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .artin import ArtinAlgebra, decompose_local
from .acceptance import run_all
from .groebner import Ideal
from .hulls import CurveExtension, socle_growth_oracle, hull_multiplicity
from .koszul import (
    GradedModuleModel,
    WindowMarginError,
    build_psi_inductive,
    ext1_koszul,
    is_regular_sequence,
    koszul_matrix,
    prime_avoidance_sequence,
)
from .localcoh import (
    CechComplex,
    gamma_dstable_check,
    gamma_torsion_cyclic,
    mv_connecting_biprincipal,
    mv_dimension_check,
)
from .ore import OreRing, verify_star
from .parser import ParseError, diffop_to_str, parse_operator, parse_polynomial
from .poly import GREVLEX, LEX, TermOrder

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    pass


def _order_from_flag(name: str) -> TermOrder:
    return LEX if name == "lex" else GREVLEX


def _infer_nvars(texts, minimum=1):
    import re

    n = minimum
    for t in texts:
        for m in re.finditer(r"[xd](\d+)", t):
            n = max(n, int(m.group(1)))
    return n


def _weyl_ring(args, texts):
    n = args.vars if getattr(args, "vars", None) else _infer_nvars(texts)
    return OreRing.weyl(tuple(f"x{i+1}" for i in range(n)))


def _parse_window(text: str, nvars: int | None = None):
    parts = [p.strip() for p in text.split(",")]
    out = []
    for p in parts:
        lo, _, hi = p.partition("..")
        try:
            out.append((int(lo), int(hi)))
        except ValueError as exc:
            raise UsageError(f"bad window component {p!r}") from exc
    if nvars is not None and len(out) == 1 and nvars > 1:
        out = out * nvars
    if nvars is not None and len(out) != nvars:
        raise UsageError(f"window has {len(out)} components, expected {nvars}")
    return out


def _parse_poly_list(text: str, variables):
    return [parse_polynomial(t.strip(), variables) for t in text.split(",") if t.strip()]


def _monomial_exponents(polys):
    out = []
    for p in polys:
        if len(p.terms) != 1:
            raise UsageError(f"{p.to_str()} is not a monomial")
        out.append(next(iter(p.terms)))
    return out


def _monomial_generators(text: str, variables):
    exps = _monomial_exponents(_parse_poly_list(text, variables))
    if not exps or not all(any(e) for e in exps):
        raise UsageError(f"need nonconstant monomial generators, got {text!r}")
    return exps


def _emit(args, human_lines, payload):
    if args.json:
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


# ---------- subcommand handlers ----------

def cmd_weyl_mul(args):
    ring = _weyl_ring(args, [args.left, args.right])
    a = parse_operator(args.left, ring)
    b = parse_operator(args.right, ring)
    prod = a * b
    text = diffop_to_str(prod, _order_from_flag(args.order))
    _emit(args, [text], {"command": "weyl-mul", "result": text})
    return 0


def cmd_weyl_lnf(args):
    ring = _weyl_ring(args, [args.expr])
    op = parse_operator(args.expr, ring).to_left()
    text = diffop_to_str(op, _order_from_flag(args.order))
    _emit(args, [text], {"command": "weyl-lnf", "result": text})
    return 0


def cmd_weyl_rnf(args):
    ring = _weyl_ring(args, [args.expr])
    op = parse_operator(args.expr, ring).to_right()
    text = diffop_to_str(op, _order_from_flag(args.order))
    _emit(args, [text], {"command": "weyl-rnf", "result": text})
    return 0


def cmd_weyl_star(args):
    ring = _weyl_ring(args, [args.ideal, args.op])
    gens = _parse_poly_list(args.ideal, ring.vars)
    s = parse_operator(args.op, ring)
    r = verify_star(Ideal(ring.vars, gens), s, args.rmax)
    _emit(args, [f"r = {r}"], {"command": "weyl-star", "r": r})
    return 0


def cmd_koszul_map(args):
    n = args.vars if args.vars else _infer_nvars([args.elems])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    elems = _parse_poly_list(args.elems, vars_)
    order = _order_from_flag(args.order)
    if args.inductive:
        mat, perm, signs = build_psi_inductive(elems)
        lines = [" | ".join(p.to_str(order) for p in row) for row in mat]
        lines.append(f"permutation = {perm}, signs = {signs}")
        _emit(args, lines, {
            "command": "koszul-map",
            "matrix": [[p.to_str(order) for p in row] for row in mat],
            "permutation": perm,
            "signs": signs,
        })
        return 0
    mat = koszul_matrix(elems, args.k, args.convention)
    lines = [" | ".join(p.to_str(order) for p in row) for row in mat]
    _emit(args, lines, {
        "command": "koszul-map",
        "matrix": [[p.to_str(order) for p in row] for row in mat],
    })
    return 0


def cmd_koszul_regcheck(args):
    n = args.vars if args.vars else _infer_nvars([args.elems])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    elems = _parse_poly_list(args.elems, vars_)
    ok, witness = is_regular_sequence(elems)
    if ok:
        lines = ["regular"]
        payload = {"command": "koszul-regcheck", "regular": True}
    else:
        lines = [f"not regular; witness: {witness.to_str()}"]
        payload = {"command": "koszul-regcheck", "regular": False,
                   "witness": witness.to_str()}
    _emit(args, lines, payload)
    return 0


def cmd_koszul_primeavoid(args):
    n = args.vars if args.vars else _infer_nvars([args.prime])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    gens = _parse_poly_list(args.prime, vars_)
    seq, trials = prime_avoidance_sequence(Ideal(vars_, gens), args.g, seed=args.seed)
    lines = [f"x_{i+1} = {p.to_str()} (trial {t})"
             for i, (p, t) in enumerate(zip(seq, trials))]
    _emit(args, lines, {
        "command": "koszul-primeavoid",
        "sequence": [p.to_str() for p in seq],
        "trials": trials,
        "seed": args.seed,
    })
    return 0


def cmd_koszul_ext1(args):
    n = args.vars if args.vars else _infer_nvars([args.elems])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    elems = _parse_poly_list(args.elems, vars_)
    model = (GradedModuleModel.polynomial(vars_) if args.model == "poly"
             else GradedModuleModel.top_local_cohomology(vars_))
    window = _parse_window(args.window)
    if len(window) != 1:
        raise UsageError("ext1 windows are total-degree ranges: lo..hi")
    dims = ext1_koszul(elems, model, window[0])
    lines = [f"degree {d}: {v}" for d, v in sorted(dims.items())]
    _emit(args, lines, {
        "command": "koszul-ext1",
        "dimensions": {str(d): v for d, v in sorted(dims.items())},
    })
    return 0


def cmd_artin_decompose(args):
    n = args.vars if args.vars else _infer_nvars([args.ideal])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    gens = _parse_poly_list(args.ideal, vars_)
    A = ArtinAlgebra(Ideal(vars_, gens))
    factors = decompose_local(A, seed=args.seed)
    lines = [f"dim = {A.dim}, factors = {len(factors)}"]
    payload_factors = []
    for i, f in enumerate(factors):
        idem = A.to_poly(f.idempotent).to_str()
        lines.append(f"factor {i+1}: dim {f.dim}, residue degree {f.residue_dim}, "
                     f"idempotent {idem}")
        payload_factors.append({
            "dim": f.dim,
            "residue_degree": f.residue_dim,
            "idempotent": idem,
        })
    _emit(args, lines, {
        "command": "artin-decompose",
        "dim": A.dim,
        "factors": payload_factors,
    })
    return 0


def _curve_extension(args) -> CurveExtension:
    if bool(args.map) == bool(args.relation):
        raise UsageError("give exactly one of --map or --relation")
    if args.map:
        f = parse_polynomial(args.map, ("y",))
        m = _parse_poly_list(args.maxideal, ("y",))
        return CurveExtension(structural_map=f, maximal_ideal=m)
    h = parse_polynomial(args.relation, ("x", "y"))
    m = _parse_poly_list(args.maxideal, ("x", "y"))
    return CurveExtension(relation=h, maximal_ideal=m)


def cmd_hull_mult(args):
    ext = _curve_extension(args)
    report = hull_multiplicity(ext)
    lines = [
        f"c = {report.multiplicity}",
        f"nu = {report.nu.to_str()}",
        f"factor dims = {report.factor_dims}",
    ]
    _emit(args, lines, {
        "command": "hull-mult",
        "extension": ext.serialize(),
        "multiplicity": report.multiplicity,
        "nu": report.nu.to_str(),
        "factor_dims": report.factor_dims,
        "residue_dims": report.residue_dims,
    })
    return 0


def cmd_hull_oracle(args):
    ext = _curve_extension(args)
    dims = socle_growth_oracle(ext, args.kmax, truncation=args.truncate)
    lines = [f"dim(0 : nu^{k+1}) = {v}" for k, v in enumerate(dims)]
    _emit(args, lines, {"command": "hull-oracle", "extension": ext.serialize(),
                        "dims": dims})
    return 0


def cmd_lc_piece(args):
    n = args.vars if args.vars else _infer_nvars([args.ideal])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    gens = _monomial_generators(args.ideal, vars_)
    try:
        degree = tuple(int(t) for t in args.degree.split(","))
    except ValueError as exc:
        raise UsageError(f"bad degree {args.degree!r}") from exc
    if len(degree) != n:
        raise UsageError(f"degree has {len(degree)} components, expected {n}")
    if not 0 <= args.i <= len(gens):
        raise UsageError(f"cohomological degree {args.i} out of range 0..{len(gens)}")
    dim = CechComplex(n, gens).cohomology_dim(args.i, degree)
    _emit(args, [str(dim)], {"command": "lc-piece", "dimension": dim})
    return 0


def cmd_lc_mv(args):
    n = args.vars if args.vars else _infer_nvars([args.i_gens, args.j_gens])
    vars_ = tuple(f"x{i+1}" for i in range(n))
    i_gens = _monomial_generators(args.i_gens, vars_)
    j_gens = _monomial_generators(args.j_gens, vars_)
    window = _parse_window(args.window, n)
    report = mv_dimension_check(i_gens, j_gens, window, nvars=n)
    ok = report["all_alternating_sums_zero"]
    lines = [f"alternating sums vanish: {ok}"]
    payload = {
        "command": "lc-mv",
        "alternating_sums_zero": ok,
        "degrees": {
            ",".join(map(str, d)): entry
            for d, entry in sorted(report["degrees"].items())
        },
    }
    connecting = None
    if len(i_gens) == 1 and len(j_gens) == 1:
        connecting = mv_connecting_biprincipal(i_gens[0], j_gens[0], window, nvars=n)
        lines.append(f"fibre/Cech oracle: {connecting['h_oracle_matches']}")
        lines.append(f"long sequence exact: {connecting['long_sequence_exact']}")
        lines.append(f"delta commutes with derivatives: {connecting['delta_d_linear']}")
        payload["connecting"] = connecting
        ok = ok and all(
            connecting[k] for k in
            ("h_oracle_matches", "long_sequence_exact", "delta_d_linear")
        )
    _emit(args, lines, payload)
    return 0 if ok else CHECK_FAILED


def cmd_lc_gamma(args):
    n = args.vars if args.vars else _infer_nvars(
        [args.ideal, args.quotient or "", args.invert or ""]
    )
    vars_ = tuple(f"x{i+1}" for i in range(n))
    if bool(args.quotient) == bool(args.invert):
        raise UsageError("give exactly one of --quotient (R/J) or --invert (R_f)")
    i_gens_polys = _parse_poly_list(args.ideal, vars_)
    if args.quotient:
        J = Ideal(vars_, _parse_poly_list(args.quotient, vars_))
        sat = gamma_torsion_cyclic(J, Ideal(vars_, i_gens_polys))
        gens = [g.to_str() for g in sat.groebner_basis()] or ["0"]
        lines = [f"torsion submodule generated by: {', '.join(gens)}"]
        _emit(args, lines, {"command": "lc-gamma", "generators": gens})
        return 0
    f = _monomial_exponents(_parse_poly_list(args.invert, vars_))[0]
    i_gens = _monomial_exponents(i_gens_polys)
    window = _parse_window(args.window, n)
    report = gamma_dstable_check(f, i_gens, window, mod_r=args.mod_r)
    lines = [
        f"torsion classes in window: {report['torsion_count']}",
        f"derivative stable: {report['stable']}",
    ]
    _emit(args, lines, {"command": "lc-gamma", **report,
                        "failure": list(report["failure"] or [])})
    return 0 if report["stable"] else CHECK_FAILED


def cmd_accept(args):
    results = run_all(seed=args.seed)
    payload = []
    all_ok = True
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
        if not args.json:
            print(line)
        payload.append({"criterion": name, "passed": ok, "detail": detail})
        all_ok = all_ok and ok
    if args.json:
        print(json.dumps({"schema": 1, "command": "accept",
                          "all_passed": all_ok, "results": payload},
                         sort_keys=True))
    elif all_ok:
        print("all criteria passed")
    return 0 if all_ok else CHECK_FAILED


# ---------- argument wiring ----------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcas",
        description="Exact operator algebra, Koszul, hull, and local "
                    "cohomology computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, vars_flag=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
        p.add_argument("--seed", type=int, default=0)
        if vars_flag:
            p.add_argument("--vars", type=int, default=None,
                           help="number of ring variables (default: inferred)")

    p = sub.add_parser("weyl-mul", help="product of two operators, left normal form")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=cmd_weyl_mul)

    p = sub.add_parser("weyl-lnf", help="left normal form of an operator expression")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=cmd_weyl_lnf)

    p = sub.add_parser("weyl-rnf", help="right normal form of an operator expression")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=cmd_weyl_rnf)

    p = sub.add_parser("weyl-star",
                       help="least r with I^r s inside the left ideal S I")
    p.add_argument("--ideal", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--rmax", type=int, default=8)
    common(p)
    p.set_defaults(fn=cmd_weyl_star)

    p = sub.add_parser("koszul-map", help="Koszul differential matrix")
    p.add_argument("--elems", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--convention", choices=("left", "right"), default="right")
    p.add_argument("--inductive", action="store_true",
                   help="use the block recursion and report the matching")
    common(p)
    p.set_defaults(fn=cmd_koszul_map)

    p = sub.add_parser("koszul-regcheck", help="regular-sequence test with witness")
    p.add_argument("--elems", required=True)
    common(p)
    p.set_defaults(fn=cmd_koszul_regcheck)

    p = sub.add_parser("koszul-primeavoid",
                       help="regular sequence that is part of a minimal "
                            "generating set locally at a prime")
    p.add_argument("--prime", required=True)
    p.add_argument("--g", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_koszul_primeavoid)

    p = sub.add_parser("koszul-ext1", help="graded Ext^1 against a module model")
    p.add_argument("--elems", required=True)
    p.add_argument("--model", choices=("poly", "hull"), default="hull")
    p.add_argument("--window", default="-6..6")
    common(p)
    p.set_defaults(fn=cmd_koszul_ext1)

    p = sub.add_parser("artin-decompose",
                       help="local factors of a zero-dimensional quotient")
    p.add_argument("--ideal", required=True)
    common(p)
    p.set_defaults(fn=cmd_artin_decompose)

    p = sub.add_parser("hull-mult", help="hull multiplicity over the base line")
    p.add_argument("--map", help="structural map f(y) for S = Q[y]")
    p.add_argument("--relation", help="relation h(x,y), monic in y")
    p.add_argument("--maxideal", required=True)
    common(p, vars_flag=False)
    p.set_defaults(fn=cmd_hull_mult)

    p = sub.add_parser("hull-oracle", help="socle growth in the truncated hull")
    p.add_argument("--map", help="structural map f(y) for S = Q[y]")
    p.add_argument("--relation", help="relation h(x,y), monic in y")
    p.add_argument("--maxideal", required=True)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--truncate", type=int, default=None)
    common(p, vars_flag=False)
    p.set_defaults(fn=cmd_hull_oracle)

    p = sub.add_parser("lc-piece", help="graded piece of local cohomology")
    p.add_argument("--ideal", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--degree", required=True)
    common(p)
    p.set_defaults(fn=cmd_lc_piece)

    p = sub.add_parser("lc-mv", help="Mayer-Vietoris verification report")
    p.add_argument("--i-gens", required=True)
    p.add_argument("--j-gens", required=True)
    p.add_argument("--window", default="-3..3")
    common(p)
    p.set_defaults(fn=cmd_lc_mv)

    p = sub.add_parser("lc-gamma", help="torsion functor and derivative stability")
    p.add_argument("--ideal", required=True, help="generators of the torsion ideal")
    p.add_argument("--quotient", help="J for the cyclic module R/J")
    p.add_argument("--invert", help="monomial f for the localization R_f")
    p.add_argument("--mod-r", action="store_true",
                   help="use R_f/R instead of R_f")
    p.add_argument("--window", default="-4..4")
    common(p)
    p.set_defaults(fn=cmd_lc_gamma)

    p = sub.add_parser("accept", help="run the full acceptance suite")
    common(p, vars_flag=False)
    p.set_defaults(fn=cmd_accept)

    return parser


_VALUE_FLAGS = {"--degree", "--window"}


def _merge_negative_values(argv):
    """Join flags whose values start with '-' (degrees, windows) so that
    argparse does not read them as option names."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed standard output; send the rest to devnull so the
        # flush at shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, UsageError, WindowMarginError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

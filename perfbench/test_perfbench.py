"""Tests of the benchmark itself: seeded generators, checkers, tracer.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import weylcas.linalg  # noqa: E402
import wl_artinian  # noqa: E402
import wl_cohomology  # noqa: E402
import wl_groebner  # noqa: E402
import wl_ore  # noqa: E402
from run import run_job  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402

WORKLOADS = [wl_groebner, wl_ore, wl_artinian, wl_cohomology]


def round_of(workload, seed=7):
    return workload.make_round(random.Random(f"test:{seed}:0"))


def cheapest(workload, kind, seed=7):
    """A small job of the given kind (the one with the least input)."""
    jobs = [j for j in round_of(workload, seed) if j["kind"] == kind]
    return min(jobs, key=lambda j: len(repr(j)))


def answer(workload, job):
    result = workload.RUN[job["kind"]](job)
    assert workload.CHECK[job["kind"]](job, result)
    return result


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_generators_are_deterministic_per_seed(workload):
    assert round_of(workload, 3) == round_of(workload, 3)
    assert round_of(workload, 3) != round_of(workload, 4)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_every_round_has_the_same_mix(workload):
    kinds = [sorted(j["kind"] for j in round_of(workload, s)) for s in (1, 2)]
    assert kinds[0] == kinds[1]


# ---------- each checker rejects a corrupted answer ----------

def test_groebner_checkers_reject_corruption():
    W = wl_groebner
    job = next(j for j in round_of(W) if j["kind"] == "basis" and j["n"] == 4 and j["ref"])
    basis = answer(W, job)
    assert not W.check_basis(job, basis[:-1])
    assert not W.check_basis(job, [basis[0] * 2] + basis[1:])
    job = next(j for j in round_of(W) if j["kind"] == "basis" and j["ref"] is None)
    basis = answer(W, job)
    assert not W.check_basis(job, basis[:-1]) or len(basis) == 1
    for kind in ("member", "regseq"):
        job = cheapest(W, kind)
        assert not W.CHECK[kind](job, not answer(W, job))
    for kind in ("quotient", "intersect", "saturation"):
        job = cheapest(W, kind)
        basis = answer(W, job)
        extra = W.SparsePoly.monomial(basis[0].vars, (5, 5, 5))
        assert not W.CHECK[kind](job, basis + [extra])
    job = cheapest(W, "stdmon")
    assert not W.CHECK["stdmon"](job, answer(W, job)[1:])


def test_ore_checkers_reject_corruption():
    W = wl_ore
    job = cheapest(W, "closed")
    op, text = answer(W, job)
    assert not W.CHECK["closed"](job, (op * 2, text))
    job = cheapest(W, "product")
    text, lhs, rhs = answer(W, job)
    assert not W.CHECK["product"](job, (text, lhs, rhs + 1))
    job = cheapest(W, "roundtrip")
    op, back, text = answer(W, job)
    assert not W.CHECK["roundtrip"](job, (op, back * 2, text))
    job = cheapest(W, "fraction")
    frac = answer(W, job)
    assert not W.CHECK["fraction"](job, frac.scale(frac.num - frac.num + 2))
    job = cheapest(W, "star")
    assert not W.CHECK["star"](job, answer(W, job) - 1)


def test_closed_form_matches_the_commutation_rule():
    # d x = x d + 1, so d^1 x^1 = x d + 1
    assert wl_ore.closed_form(1, 0, 1) == {(1,): {(1,): 1}, (0,): {(0,): 1}}
    assert wl_ore.closed_form(1, 0, 2)[(0,)] == {(0,): 2}


def test_artinian_checkers_reject_corruption():
    W = wl_artinian
    job = cheapest(W, "decomp")
    algebra, factors = answer(W, job)
    assert not W.CHECK["decomp"](job, (algebra, factors[1:] or []))
    job = next(j for j in round_of(W) if j["kind"] == "known" and not j["defect"]
               and len(j["expect"]) > 1 and j["expect"][-1] < 5)
    algebra, factors = answer(W, job)
    one = [Fraction(int(i == 0)) for i in range(algebra.dim)]
    merged = SimpleNamespace(dim=algebra.dim, idempotent=one)
    assert not W.CHECK["known"](job, (algebra, [merged]))
    job = cheapest(W, "hull")
    module, factors, hull, socle = answer(W, job)
    assert not W.CHECK["hull"](job, (module, factors, hull, [m + 1 for m in socle]))
    hull.certificates["essential"] = False
    assert not W.CHECK["hull"](job, (module, factors, hull, socle))
    job = cheapest(W, "hullmult")
    report = answer(W, job)
    report.multiplicity += 1
    assert not W.CHECK["hullmult"](job, report)
    job = cheapest(W, "socle")
    assert not W.CHECK["socle"](job, [d + 1 for d in answer(W, job)])


def test_known_defect_inputs_have_the_expected_answer_by_construction():
    jobs = [j for j in round_of(wl_artinian) if j.get("defect")]
    assert sorted(j["expect"] for j in jobs) == [[2, 3], [3, 3]]


def test_cohomology_checkers_reject_corruption():
    W = wl_cohomology
    for maximal in (True, False):
        job = next(j for j in round_of(W) if j["kind"] == "cech" and j["maximal"] is maximal)
        dims = answer(W, job)
        key = next(iter(dims))
        assert not W.CHECK["cech"](job, {**dims, key: dims[key] + 1})
    job = cheapest(W, "mv")
    report = answer(W, job)
    entry = next(iter(report["degrees"].values()))
    entry["I"][0] += 1
    assert not W.CHECK["mv"](job, report)
    job = cheapest(W, "mvconn")
    report = answer(W, job)
    assert not W.CHECK["mvconn"](job, {**report, "long_sequence_exact": False})
    job = next(j for j in round_of(W) if j["kind"] == "koszul" and len(j["seq"]) == 2)
    h1, ext1, composes = answer(W, job)
    assert not W.CHECK["koszul"](job, (h1, ext1, False))
    assert not W.CHECK["koszul"](job, ({d: v + 1 for d, v in h1.items()}, ext1, composes))


# ---------- harness and tracer ----------

def test_a_raising_job_fails_without_stopping_the_run():
    job = {"kind": "boom"}
    workload = SimpleNamespace(RUN={"boom": lambda job: 1 / 0}, CHECK={})
    seconds, problem = run_job(workload, job)
    assert "ZeroDivisionError" in problem and seconds >= 0


def test_tracer_counts_repeat_exactly_and_uninstall_restores():
    original = weylcas.linalg.mat_mul
    jobs = [j for j in round_of(wl_artinian) if j["kind"] == "decomp"][:4]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(callers=[wl_artinian])
        try:
            for job in jobs:
                answer(wl_artinian, job)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.mat_mul.mults"] > 0 and counts[0]["artin.decompose_local.calls"] == 4
    assert weylcas.linalg.mat_mul is original


def test_metric_names_cover_the_tracer():
    tracer = Tracer()
    names = set(tracer.metrics()) | {"trace.overhead_ratio"}
    assert names == {n for n, _ in metric_names()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "not found" in proc.stderr

"""Paired benchmark runs: a parent revision against the working tree.

Usage, from the root of a checkout:

    python3 tools/benchpair.py --pr N --parent HEAD --workload groebner --pairs 10
    python3 tools/benchpair.py --pr N --parent main --pairs 5

The committed files of the parent revision are exported with `git archive`
into a temporary directory, and the working tree's files that git tracks or
would track (`git ls-files --cached --others --exclude-standard`, so
uncommitted edits and new files but nothing ignored, such as a
`__pycache__`) are copied beside them, so that neither side starts with
bytecode compiled by earlier runs.  The directory is removed afterwards and
nothing is left behind in the repository.  Each pair runs `perfbench/run.py
--trace 0` once on the parent and once on the working tree with the same
seed and the run length `BENCHMARK.json` declares, and alternates which
side runs first, so that drift on a shared host favours neither.  Pair k
uses seed --seed + k.

BENCH_<pr>.json then holds, per workload and end-to-end metric, both
sides' medians, the distance between the quartiles of the parent's runs,
the number of pairs the change won (by the direction `BENCHMARK.json`
gives the metric) and every run's value, and per workload the failed and
attempted job counts of every run.  Its `meta` also records what moves
`setup_s`, the time `perfbench/run.py` takes to import the library: the
line count of each side's `src/`, and whether bytecode caching was off
(PYTHONDONTWRITEBYTECODE set, which the runs inherit, or this interpreter
started with -B), in which case every import compiles from source.  A run that exits non-zero, or whose
JSON says `"correct": false` (a job answered wrongly outside the listed
known defects; `perfbench/run.py` still exits 0 then), stops the script: it
names the side, workload, seed and the exit code or the wrong answers,
prints the tail of the run's stderr if there is one, and exits 1 without
writing BENCH_<pr>.json.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("groebner", "ore", "artinian", "cohomology")
SIDES = ("parent", "change")
STDERR_TAIL_LINES = 20


class RunFailed(Exception):
    """A perfbench run that exited non-zero or answered wrongly, and where
    it ran."""

    def __init__(self, side, workload, seed, problem, stderr=""):
        super().__init__(f"perfbench run failed: {side} side, workload {workload}, "
                         f"seed {seed}, {problem}")
        self.stderr = stderr or ""


def run_perfbench(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in `tree`; its closing JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(runner, trees, workloads, pairs, seed, seconds, log=None):
    """runs[workload][side]: the runner's results in pair order.  Pair k
    runs the parent first when k is even and the change first when k is odd."""
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for w in workloads:
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                try:
                    result = runner(trees[side], w, seed + k, seconds)
                except subprocess.CalledProcessError as exc:
                    raise RunFailed(side, w, seed + k, f"exit code {exc.returncode}",
                                    exc.stderr) from None
                if not result["correct"]:
                    raise RunFailed(side, w, seed + k,
                                    f"wrong answers ({result['failed']} failed jobs, "
                                    '"correct": false)')
                runs[w][side].append(result)
                if log:
                    log(f"{w} pair {k + 1}/{pairs} seed {seed + k} {side}: "
                        + ", ".join(f"{name} {m['value']:.4g}"
                                    for name, m in result["metrics"].items()))
    return runs


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(runs, better):
    """Per workload: per metric the medians, the parent's quartile distance
    and the pairs won by the change; the job counts of every run.  `better`
    maps a metric name to "higher" or "lower"; a metric it lacks gets no
    count of pairs won."""
    out = {}
    for w, sides in runs.items():
        metrics = {}
        for name, first in sides["parent"][0]["metrics"].items():
            p, c = ([r["metrics"][name]["value"] for r in sides[s]] for s in SIDES)
            direction = better.get(name)
            won = None
            if direction is not None:
                sign = 1 if direction == "higher" else -1
                won = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
            metrics[name] = {
                "unit": first["unit"], "better": direction,
                "parent_median": statistics.median(p), "change_median": statistics.median(c),
                "parent_iqr": quartile_distance(p), "change_won": won, "pairs": len(p),
                "parent": p, "change": c,
            }
        out[w] = {
            "metrics": metrics,
            "failed": {s: [r["failed"] for r in sides[s]] for s in SIDES},
            "attempted": {s: [r["attempted"] for r in sides[s]] for s in SIDES},
        }
    return out


def read_benchmark(benchmark_json):
    """The end-to-end metrics' directions and the run length in seconds."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


def src_lines(tree):
    """The number of lines of the Python files under tree/src."""
    return sum(p.read_bytes().count(b"\n") for p in Path(tree, "src").rglob("*.py"))


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export_revision(rev, dest, repo):
    """Write the files `rev` of `repo` commits into the new directory `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo,
                             capture_output=True, check=True).stdout
    Path(dest).mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest, repo):
    """Copy into the new directory `dest` the working-tree files of `repo`
    that are tracked or untracked but not ignored; a tracked file deleted in
    the working tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=repo, capture_output=True, check=True).stdout
    Path(dest).mkdir(parents=True)
    for name in os.fsdecode(listed).split("\0"):
        source = Path(repo, name)
        if name and source.is_file():
            Path(dest, name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, Path(dest, name))


def _print_table(summary):
    for w, entry in summary.items():
        print(f"{w}: failed parent {entry['failed']['parent']} change {entry['failed']['change']}")
        for name, m in entry["metrics"].items():
            won = "" if m["change_won"] is None else f"  change won {m['change_won']}/{m['pairs']}"
            print(f"  {name:<14} {m['parent_median']:>12.5g} -> {m['change_median']:<12.5g}"
                  f" (parent IQR {m['parent_iqr']:.3g}){won}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; all four when absent")
    parser.add_argument("--pairs", type=_positive_int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    better, seconds = read_benchmark(ROOT / "BENCHMARK.json")
    meta = {
        "parent": f"{args.parent} = {_git('rev-parse', args.parent)}",
        "change": f"working tree on {_git('rev-parse', 'HEAD')}"
                  + (" with uncommitted changes" if _git("status", "--porcelain", "--untracked-files=no") else ""),
        "pairs": args.pairs, "seconds": seconds, "first_seed": args.seed,
        "command": "perfbench/run.py --trace 0",
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "bytecode_caching_off": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")
                                     or sys.flags.dont_write_bytecode),
    }
    tmp = Path(tempfile.mkdtemp(prefix="benchpair-"))
    try:
        export_revision(args.parent, tmp / "parent", ROOT)
        copy_working_tree(tmp / "change", ROOT)
        trees = {side: tmp / side for side in SIDES}
        meta["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        runs = run_pairs(run_perfbench, trees, workloads, args.pairs, args.seed, seconds,
                         log=lambda line: print(line, flush=True))
    except RunFailed as exc:
        tail = exc.stderr.splitlines()[-STDERR_TAIL_LINES:]
        print("\n".join([str(exc), *(["stderr tail:", *tail] if tail else [])]), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarise(runs, better)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"meta": meta, "workloads": summary}, indent=1) + "\n")
    _print_table(summary)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

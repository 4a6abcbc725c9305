"""Per-job-kind timing of a parent revision against the working tree.

Usage, from the root of a checkout:

    python3 tools/jobpair.py --workload cohomology
    python3 tools/jobpair.py --workload artinian --parent HEAD~1 --rounds 4 --passes 7

The two trees are made as `tools/benchpair.py` makes them: the parent's
committed files exported with `git archive`, and the working tree's tracked
and untracked-but-not-ignored files copied, both into a temporary directory
that is removed afterwards.  Each side then gets one persistent worker
process, which imports that side's `src/` and `perfbench/` and generates
the first --rounds rounds of the workload from --seed, as
`perfbench/run.py --seed` does, so both sides hold the same jobs.

A pass sends every job of those rounds, in order, to both workers, one job
at a time: the parent runs job k first when k is even and the change runs it
first when k is odd, so drift on a shared host favours neither side.  Each
worker times its job with perfbench's own `run_job` (the answer is checked
after the timer stops) and reports the seconds.  The script prints, per job
kind, the time ratio change / parent of each pass and the median over the
passes, and the same for all jobs together.  A ratio below 1 means the
change is faster.  Separate perfbench runs of one revision on a shared host
can differ by more than the effects measured here; alternating job by job
in two warm processes cancels most of that.

A job that raises or answers wrongly (outside perfbench's listed known
defects) on either side stops the script with exit code 1.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchpair import ROOT, SIDES, WORKLOADS, _git, _positive_int, copy_working_tree, export_revision

TOOLS = Path(__file__).resolve().parent
WORKER = "import sys; sys.path.insert(0, sys.argv[1]); import jobpair; jobpair.serve(*sys.argv[2:])"


def serve(tree, name, seed, rounds):
    """The worker: load the rounds, print their job kinds as one JSON line,
    then for each job index read from stdin print one JSON line with the
    seconds and the problem (None when the answer is right or a listed
    known defect)."""
    sys.path[:0] = [str(Path(tree, "src")), str(Path(tree, "perfbench"))]
    import run

    signal.signal(signal.SIGALRM, run._on_alarm)
    workload = importlib.import_module(f"wl_{name}")
    jobs = [job for r in run.generate(workload, name, int(seed))[:int(rounds)] for job in r]
    print(json.dumps([job["kind"] for job in jobs]), flush=True)
    for line in sys.stdin:
        job = jobs[int(line)]
        seconds, problem = run.run_job(workload, job)
        if job.get("defect"):
            problem = None
        print(json.dumps({"seconds": seconds, "problem": problem}), flush=True)


class Worker:
    """One side's worker process."""

    def __init__(self, side, tree, name, seed, rounds):
        self.side = side
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(TOOLS), str(tree), name, str(seed), str(rounds)],
            cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kinds = json.loads(self._read())

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.side} worker exited with code {self.proc.wait()}")
        return line

    def run(self, index):
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        reply = json.loads(self._read())
        if reply["problem"]:
            raise RuntimeError(f"{self.side} side, job {index} ({self.kinds[index]}): "
                               f"{reply['problem']}")
        return reply["seconds"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def time_passes(workers, passes):
    """seconds[p][side][kind]: the summed job times of pass p."""
    kinds = workers["parent"].kinds
    if workers["change"].kinds != kinds:
        raise RuntimeError("the two sides generated different jobs")
    out = []
    for _ in range(passes):
        totals = {side: dict.fromkeys(kinds, 0.0) for side in SIDES}
        for index, kind in enumerate(kinds):
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                totals[side][kind] += workers[side].run(index)
        out.append(totals)
    return out


def ratios(seconds):
    """Per kind, and for "all" jobs, the change / parent ratio of each pass."""
    kinds = list(seconds[0]["parent"]) + ["all"]
    out = {kind: [] for kind in kinds}
    for totals in seconds:
        for kind in kinds:
            parent, change = ((sum(totals[s].values()) if kind == "all" else totals[s][kind])
                              for s in SIDES)
            out[kind].append(change / parent)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="cohomology")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    parser.add_argument("--rounds", type=_positive_int, default=12,
                        help="the first N of the 12 rounds perfbench generates per seed")
    parser.add_argument("--passes", type=_positive_int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="jobpair-"))
    workers = {}
    try:
        export_revision(args.parent, tmp / "parent", ROOT)
        copy_working_tree(tmp / "change", ROOT)
        for side in SIDES:
            workers[side] = Worker(side, tmp / side, args.workload, args.seed, args.rounds)
        seconds = time_passes(workers, args.passes)
    except RuntimeError as exc:
        print(f"jobpair: {exc}", file=sys.stderr)
        return 1
    finally:
        for worker in workers.values():
            worker.close()
        shutil.rmtree(tmp, ignore_errors=True)
    kinds = workers["parent"].kinds
    print(f"{args.workload}: change / parent job time, parent {args.parent} = "
          f"{_git('rev-parse', args.parent)}, {args.rounds} rounds ({len(kinds)} jobs) "
          f"from seed {args.seed}, {args.passes} passes")
    header = "".join(f"  pass {p + 1:<3}" for p in range(args.passes))
    print(f"{'kind':<12}{'jobs':>5}{header}  median")
    for kind, values in ratios(seconds).items():
        count = len(kinds) if kind == "all" else kinds.count(kind)
        cells = "".join(f"  {v:<8.3f}" for v in values)
        print(f"{kind:<12}{count:>5}{cells}  {statistics.median(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

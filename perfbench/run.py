"""Benchmark for weylcas: four seeded exact-algebra workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload groebner --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process and one thread drive each workload in a closed loop with one
client: a job starts when the previous one returns, as when a researcher
calls the library or the command line.  Jobs come in rounds of a fixed mix;
the run repeats whole rounds until --seconds have passed, so every run sees
the same mix.  Each job's answer is checked by independent code after its
timer stops.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds twice, plain and with spans around the library's public functions,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import qpoly as Q

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("groebner", "ore", "artinian", "cohomology")
ROUNDS = 12          # rounds generated per run; a long run cycles through them
TRACE_ROUNDS = 2     # fixed, so the traced counts repeat exactly per seed
SETUP_REPEATS = 7
JOB_CAP_S = 20.0     # a job over this counts as failed
GUARD_S = 90.0       # stop mid-round this long after --seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from run import reference_seconds\n"
    "t = time.perf_counter()\n"
    "import weylcas\n"
    "print(time.perf_counter() - t, reference_seconds())\n"
)


class JobTimeout(BaseException):
    """Raised by the alarm when a job runs over the cap; a BaseException so
    that no `except Exception` in the library swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout


# A polynomial product and reduction on plain dicts: the same kind of work
# as the library's (tuples, dicts, Fractions), in code no library change
# touches.  Its time says how fast the shared host runs Python right now.
# Times are reported at the nominal speed at which it takes 3.6 ms, about
# its time on an uncontended Intel Xeon (x86-64) core under CPython 3.11.
_REF_POLY = Q.power({(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3, (0, 0, 0): 1}, 3, 3)
_REF_BASIS = [{(2, 0, 0): 1, (0, 1, 0): -1}, {(0, 2, 0): 1, (0, 0, 1): -2}]
NOMINAL_REFERENCE_S = 0.0036


def reference_seconds():
    start = perf_counter()
    Q.reduce(Q.mul(_REF_POLY, _REF_POLY), _REF_BASIS, Q.grevlex_key)
    return perf_counter() - start


class Tally:
    """Outcomes of the jobs of one run, with the reference times measured
    between them."""

    WINDOW = 4  # reference samples taken on each side of a job

    def __init__(self):
        self.seconds = []  # wall time of each job
        self.after = []    # index in `marks` of the sample taken after each job
        self.marks = []    # reference times, in order
        self.failed = 0
        self.known_defects = 0
        self.unexpected = []

    def mark(self, reference):
        self.marks.append(reference)

    def add(self, job, seconds, problem):
        self.seconds.append(seconds)
        self.after.append(len(self.marks))
        if problem is None:
            return
        self.failed += 1
        if job.get("defect"):
            self.known_defects += 1
        else:
            self.unexpected.append(f"{job['kind']}: {problem}")

    @property
    def attempted(self):
        return len(self.seconds)

    def local_references(self):
        """Median reference time over the samples nearest each job."""
        w = self.WINDOW
        return [statistics.median(self.marks[max(0, a - w):a + w]) for a in self.after]

    def latencies(self):
        """Job times at the nominal host speed: each wall time is scaled by
        NOMINAL_REFERENCE_S / (local reference time of the job).  On a
        shared host the speed drifts by up to 2x over seconds; the scaling
        removes that drift, which would otherwise swamp the figures."""
        return [s * NOMINAL_REFERENCE_S / r for s, r in zip(self.seconds, self.local_references())]


def run_jobs(workload, jobs, tally):
    """Run jobs in order with a reference measurement between each two."""
    tally.mark(reference_seconds())
    for job in jobs:
        tally.add(job, *run_job(workload, job))
        tally.mark(reference_seconds())


def run_job(workload, job):
    """Time one job under the cap, then check its answer.  Returns the
    seconds spent in the library and a problem description or None."""
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    start = perf_counter()
    try:
        result = workload.RUN[job["kind"]](job)
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return perf_counter() - start, f"over the {JOB_CAP_S:g} s cap"
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        ok = workload.CHECK[job["kind"]](job, result)
    except Exception as exc:  # a malformed answer fails its check
        return seconds, f"check raised {type(exc).__name__}: {exc}"
    return seconds, None if ok else "wrong answer"


def generate(workload, name, seed):
    return [workload.make_round(random.Random(f"{name}:{seed}:{r}")) for r in range(ROUNDS)]


def measure_setup(workload, name, seed):
    """Median over SETUP_REPEATS of (import weylcas in a fresh interpreter)
    + (generate the run's inputs), each part scaled to the nominal host
    speed by a reference measured right after it, as job times are."""
    parts = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                               cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        import_s, import_ref = map(float, probe.stdout.split()[-2:])
        start = perf_counter()
        rounds = generate(workload, name, seed)
        parts.append((import_s, import_ref, perf_counter() - start, reference_seconds()))
    samples = [(i / i_ref + g / g_ref) * NOMINAL_REFERENCE_S for i, i_ref, g, g_ref in parts]
    return statistics.median(samples), rounds


def measure(workload, rounds, seconds):
    """Whole rounds until `seconds` have passed (or GUARD_S more, mid-round)."""
    tally = Tally()
    start = perf_counter()
    deadline = start + seconds + GUARD_S
    r = 0
    while perf_counter() - start < seconds:
        run_jobs(workload, (job for job in rounds[r % len(rounds)]
                            if perf_counter() < deadline), tally)
        r += 1
    return tally


def end_to_end(tally, setup_s):
    latencies = tally.latencies()
    ms = sorted(1000 * s for s in latencies)
    return {
        "setup_s": setup_s,
        "jobs_per_s": (tally.attempted - tally.failed) / sum(latencies),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[8],
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(workload, rounds, name, seed):
    from spans import Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    for r in range(TRACE_ROUNDS):
        # alternate which pass goes first, so warm-up favours neither
        for tally in (plain, traced) if r % 2 == 0 else (traced, plain):
            if tally is plain:
                run_jobs(workload, rounds[r], plain)
                continue
            tracer.install(callers=[workload])
            try:
                run_jobs(workload, rounds[r], traced)
            finally:
                tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(traced.latencies()) / sum(plain.latencies())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace_{name}_seed{seed}.jsonl")
    return traced, plain, metrics


def report(name, seed, tally, values, units):
    print(f"workload {name}, seed {seed}: {tally.attempted} jobs checked "
          f"(percentiles over {tally.attempted} samples), {tally.failed} failed "
          f"({tally.known_defects} known defects), job wall time {sum(tally.seconds):.2f} s, "
          f"host slowdown (median reference / nominal) "
          f"{statistics.median(tally.marks) / NOMINAL_REFERENCE_S:.2f}")
    for key, value in values.items():
        print(f"  {key:<40} {value:>16.6g} {units[key]}")
    if "ok_ratio" in values:
        print(f"  {'fail_ratio':<40} {1 - values['ok_ratio']:>16.6g} ratio "
              f"({tally.failed} of {tally.attempted})")
    for problem in tally.unexpected[:10]:
        print(f"  UNEXPECTED FAILURE {problem}")


def run_one(name, seed, seconds, trace):
    workload = importlib.import_module(f"wl_{name}")
    setup_s, rounds = measure_setup(workload, name, seed)
    if trace:
        from spans import metric_names

        tally, plain, values = measure_traced(workload, rounds, name, seed)
        units = dict(metric_names())
        unexpected = tally.unexpected + plain.unexpected
    else:
        tally = measure(workload, rounds, seconds)
        values = end_to_end(tally, setup_s)
        units = END_TO_END_UNITS
        unexpected = tally.unexpected
    report(name, seed, tally, values, units)
    return {
        # true when every failure is a listed known defect; those stay in `failed`
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args):
    """Each workload in its own interpreter, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylcas" / "__init__.py").is_file():
        print(f"weylcas sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weylcas

    if Path(weylcas.__file__).resolve().parent != (SRC / "weylcas").resolve():
        print(f"imported weylcas from {weylcas.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

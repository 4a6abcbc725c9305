"""tools/benchpair.py with a stubbed runner: pairing, medians, the JSON
report, and the export of a revision and the copy of the working tree of a
throwaway repository.  The benchmark itself never runs here."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import benchpair  # noqa: E402


def _result(jobs_per_s, p50, failed=0, attempted=100):
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": {
        "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
        "job_p50_ms": {"value": p50, "unit": "ms"},
        "trace_only": {"value": 1.0, "unit": "count"},
    }}


class StubRunner:
    """Records every call; the change is faster except in the pair of seed 3."""

    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        self.calls.append((tree, workload, seed, seconds))
        if tree == "P":
            return _result(10.0 + seed, 5.0, failed=seed % 2)
        if seed == 3:
            return _result(1.0, 9.0)
        return _result(20.0 + seed, 4.0)


def test_pairs_alternate_which_side_runs_first():
    stub = StubRunner()
    runs = benchpair.run_pairs(stub, {"parent": "P", "change": "C"}, ["groebner", "ore"],
                               pairs=4, seed=1, seconds=7)
    assert [(t, w, s) for t, w, s, _ in stub.calls] == [
        ("P", "groebner", 1), ("C", "groebner", 1), ("C", "groebner", 2), ("P", "groebner", 2),
        ("P", "groebner", 3), ("C", "groebner", 3), ("C", "groebner", 4), ("P", "groebner", 4),
        ("P", "ore", 1), ("C", "ore", 1), ("C", "ore", 2), ("P", "ore", 2),
        ("P", "ore", 3), ("C", "ore", 3), ("C", "ore", 4), ("P", "ore", 4),
    ]
    assert all(seconds == 7 for *_, seconds in stub.calls)
    # results are kept in pair order on each side, whichever ran first
    assert [r["metrics"]["jobs_per_s"]["value"] for r in runs["ore"]["parent"]] == [11, 12, 13, 14]


def test_summary_medians_quartiles_and_pairs_won():
    runs = benchpair.run_pairs(StubRunner(), {"parent": "P", "change": "C"}, ["groebner"],
                               pairs=5, seed=1, seconds=1)
    better = {"jobs_per_s": "higher", "job_p50_ms": "lower"}
    entry = benchpair.summarise(runs, better)["groebner"]
    jobs = entry["metrics"]["jobs_per_s"]
    assert jobs["parent"] == [11, 12, 13, 14, 15] and jobs["change"] == [21, 22, 1.0, 24, 25]
    assert jobs["parent_median"] == 13 and jobs["change_median"] == 22
    assert jobs["parent_iqr"] == pytest.approx(3.0)  # quartiles 11.5 and 14.5
    assert jobs["change_won"] == 4 and jobs["pairs"] == 5
    assert jobs["unit"] == "1/s" and jobs["better"] == "higher"
    p50 = entry["metrics"]["job_p50_ms"]
    assert p50["change_won"] == 4 and p50["parent_iqr"] == 0
    assert entry["metrics"]["trace_only"]["change_won"] is None
    assert entry["failed"] == {"parent": [1, 0, 1, 0, 1], "change": [0] * 5}
    assert entry["attempted"] == {"parent": [100] * 5, "change": [100] * 5}
    # the report is plain JSON
    assert json.loads(json.dumps(entry)) == entry


def test_quartile_distance_of_a_single_run_is_zero():
    assert benchpair.quartile_distance([3.0]) == 0.0


def test_directions_and_run_length_come_from_the_benchmark_declaration():
    declared = json.loads((benchpair.ROOT / "BENCHMARK.json").read_text())
    directions, seconds = benchpair.read_benchmark(benchpair.ROOT / "BENCHMARK.json")
    assert directions["jobs_per_s"] == "higher" and directions["job_p90_ms"] == "lower"
    assert seconds == declared["run_seconds"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_of_a_revision_holds_its_committed_files_only(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "f.txt").write_text("parent\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "parent")
    (repo / "f.txt").write_text("change\n")
    (repo / "untracked.txt").write_text("not committed\n")
    dest = tmp_path / "export" / "parent"
    benchpair.export_revision("HEAD", dest, repo)
    assert sorted(p.name for p in dest.iterdir()) == ["f.txt"]
    assert (dest / "f.txt").read_text() == "parent\n"
    # the repository itself is untouched: no worktree, same working files
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, check=True,
                            capture_output=True, text=True).stdout
    assert len(listed.splitlines()) == 1
    assert (repo / "f.txt").read_text() == "change\n"


def _stub_main(monkeypatch, tmp_path, runner):
    """benchpair.main with `runner` in place of perfbench, no git, and
    tmp_path as the checkout that receives BENCH_<pr>.json and whose files
    make the change tree."""
    shutil.copy(benchpair.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(benchpair, "ROOT", tmp_path)
    monkeypatch.setattr(benchpair, "_git", lambda *args: "")
    monkeypatch.setattr(benchpair, "export_revision",
                        lambda rev, dest, repo: Path(dest).mkdir(parents=True))
    monkeypatch.setattr(benchpair, "copy_working_tree",
                        lambda dest, repo: shutil.copytree(repo, dest))
    monkeypatch.setattr(benchpair, "run_perfbench", runner)


def _is_change(tree):
    return Path(tree).name == "change"


def test_pairs_must_be_a_positive_integer(monkeypatch, tmp_path, capsys):
    stub = StubRunner()
    _stub_main(monkeypatch, tmp_path, stub)
    for pairs in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            benchpair.main(["--pr", "t", "--pairs", pairs])
        assert exc.value.code == 2
        assert f"{pairs} is not a positive integer" in capsys.readouterr().err
    assert stub.calls == [] and not (tmp_path / "BENCH_t.json").exists()
    assert benchpair.main(["--pr", "t", "--pairs", "1", "--workload", "ore"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["workloads"]["ore"]["metrics"]["jobs_per_s"]["pairs"] == 1


def test_a_failing_run_is_reported_and_writes_no_report(monkeypatch, tmp_path, capsys):
    stub = StubRunner()

    def runner(tree, workload, seed, seconds):
        if workload == "ore" and seed == 102 and _is_change(tree):
            stderr = "".join(f"line {i}\n" for i in range(30)) + "KeyError: 'x'\n"
            raise subprocess.CalledProcessError(3, ["perfbench/run.py"], output="", stderr=stderr)
        return stub(tree, workload, seed, seconds)

    _stub_main(monkeypatch, tmp_path, runner)
    assert benchpair.main(["--pr", "t", "--pairs", "3", "--workload", "groebner",
                           "--workload", "ore"]) == 1
    err = capsys.readouterr().err
    assert "change side, workload ore, seed 102, exit code 3" in err
    assert err.rstrip().endswith("KeyError: 'x'") and "line 29" in err and "line 10\n" not in err
    assert not (tmp_path / "BENCH_t.json").exists()
    # pair 2 runs the change first, so the run stopped before its parent
    assert [(w, s) for _, w, s, _ in stub.calls][-2:] == [("ore", 101), ("ore", 101)]


def test_a_run_with_wrong_answers_is_a_failed_run(monkeypatch, tmp_path, capsys):
    # perfbench/run.py exits 0 on wrong answers; its JSON says "correct": false
    stub = StubRunner()

    def runner(tree, workload, seed, seconds):
        result = stub(tree, workload, seed, seconds)
        if workload == "artinian" and seed == 102 and _is_change(tree):
            result = dict(result, correct=False, failed=2)
        return result

    _stub_main(monkeypatch, tmp_path, runner)
    assert benchpair.main(["--pr", "t", "--pairs", "3", "--workload", "artinian"]) == 1
    err = capsys.readouterr().err
    assert "change side, workload artinian, seed 102, wrong answers (2 failed jobs" in err
    assert "stderr tail" not in err
    assert not (tmp_path / "BENCH_t.json").exists()
    # pair 2 runs the change first, so the run stopped before its parent
    assert [(w, s) for _, w, s, _ in stub.calls][-2:] == [("artinian", 101), ("artinian", 102)]


def test_meta_records_source_size_and_bytecode_caching(monkeypatch, tmp_path):
    # setup_s tracks the size of src/ when every import compiles from source
    stub = StubRunner()
    _stub_main(monkeypatch, tmp_path, stub)

    def export(rev, dest, repo):
        (Path(dest) / "src" / "pkg").mkdir(parents=True)
        (Path(dest) / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
        (Path(dest) / "src" / "notes.txt").write_text("not python\n" * 50)

    monkeypatch.setattr(benchpair, "export_revision", export)
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n" * 4)
    (tmp_path / "src" / "pkg" / "b.py").write_text("y = 2\n")
    for env, flag, off in (("1", 0, True), (None, 1, True), (None, 0, False), ("", 0, False)):
        if env is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", env)
        monkeypatch.setattr(benchpair.sys, "flags", types.SimpleNamespace(dont_write_bytecode=flag))
        assert benchpair.main(["--pr", "t", "--pairs", "1", "--workload", "ore"]) == 0
        meta = json.loads((tmp_path / "BENCH_t.json").read_text())["meta"]
        assert meta["src_lines"] == {"parent": 2, "change": 5}
        assert meta["bytecode_caching_off"] is off


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_change_runs_in_a_copy_of_the_working_tree_without_bytecode(monkeypatch, tmp_path):
    # a stale __pycache__ in the working tree would let the change skip compiling
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    shutil.copy(benchpair.ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("VALUE = 'parent'\n")
    (repo / "gone.py").write_text("")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "mod.py").write_text("VALUE = 'change'\n")
    (repo / "pkg" / "new.py").write_text("")
    (repo / "gone.py").unlink()
    cache = repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc"
    cache.parent.mkdir()
    cache.write_bytes(b"stale")
    seen = {}

    def runner(tree, workload, seed, seconds):
        files = sorted(p.relative_to(tree).as_posix() for p in Path(tree).rglob("*") if p.is_file())
        seen[Path(tree).name] = (Path(tree), (Path(tree) / "pkg" / "mod.py").read_text(), files)
        return _result(1.0, 1.0)

    monkeypatch.setattr(benchpair, "ROOT", repo)
    monkeypatch.setattr(benchpair, "run_perfbench", runner)
    assert benchpair.main(["--pr", "t", "--pairs", "1", "--workload", "ore"]) == 0
    tree, text, files = seen["change"]
    assert text == "VALUE = 'change'\n"
    assert files == [".gitignore", "BENCHMARK.json", "pkg/mod.py", "pkg/new.py"]
    assert tree.parent == seen["parent"][0].parent and not tree.exists()
    assert seen["parent"][1:] == ("VALUE = 'parent'\n",
                                  [".gitignore", "BENCHMARK.json", "gone.py", "pkg/mod.py"])
    # the working tree itself is left as it was
    assert cache.read_bytes() == b"stale" and not (repo / "gone.py").exists()

"""tools/jobpair.py end to end: an A/A run, both sides the working tree, of
one round of the `cohomology` workload."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import jobpair  # noqa: E402


def test_ratios_per_kind_and_for_all_jobs():
    seconds = [{"parent": {"a": 2.0, "b": 1.0}, "change": {"a": 1.0, "b": 2.0}},
               {"parent": {"a": 4.0, "b": 4.0}, "change": {"a": 4.0, "b": 2.0}}]
    assert jobpair.ratios(seconds) == {"a": [0.5, 1.0], "b": [2.0, 0.5], "all": [1.0, 0.75]}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_an_aa_run_of_one_round_prints_one_ratio_per_kind(monkeypatch, capsys):
    # the parent side is a second copy of the working tree
    monkeypatch.setattr(jobpair, "export_revision",
                        lambda rev, dest, repo: jobpair.copy_working_tree(dest, repo))
    assert jobpair.main(["--workload", "cohomology", "--rounds", "1", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cohomology: change / parent job time")
    assert lines[1].split() == ["kind", "jobs", "pass", "1", "pass", "2", "median"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(rows) == {"cech", "mv", "mvconn", "koszul", "all"}
    for kind, (jobs, *values) in rows.items():
        assert int(jobs) >= 1 and len(values) == 3
        assert all(float(v) > 0 for v in values)
    assert int(rows["all"][0]) == sum(int(cells[0]) for kind, cells in rows.items() if kind != "all")

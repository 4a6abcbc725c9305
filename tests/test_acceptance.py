"""The full acceptance battery, one test per criterion.

Every check is exact; each prints its PASS/FAIL line so a plain
`pytest -s tests/test_acceptance.py` reads as the acceptance report.
The same battery backs the `weylcas accept` CLI subcommand.
"""

import pytest

from weylcas.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("name,criterion", ALL_CRITERIA,
                         ids=[name for name, _ in ALL_CRITERIA])
def test_criterion(name, criterion):
    passed, detail = criterion(seed=0)
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _stub_results(failing=()):
    return [(name, name not in failing, f"stub detail {i}")
            for i, (name, _) in enumerate(ALL_CRITERIA)]


def test_cli_accept_subcommand(capsys, monkeypatch):
    # the wiring only; every criterion already runs once in test_criterion
    import weylcas.cli as cli

    monkeypatch.setattr(cli, "run_all", lambda seed=0: _stub_results())
    code = cli.main(["accept"])
    out = capsys.readouterr().out
    assert code == 0
    for name, _ in ALL_CRITERIA:
        assert out.count(f"PASS  {name}: ") == 1
    assert out.count("PASS") == len(ALL_CRITERIA)
    assert "all criteria passed" in out


def test_cli_accept_reports_failure(capsys, monkeypatch):
    import weylcas.cli as cli

    failing = ALL_CRITERIA[3][0]
    monkeypatch.setattr(cli, "run_all", lambda seed=0: _stub_results({failing}))
    assert cli.main(["accept"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL  {failing}: " in out
    assert "all criteria passed" not in out


def test_cli_accept_json_payload(capsys, monkeypatch):
    import json

    import weylcas.cli as cli

    seeds = []
    monkeypatch.setattr(cli, "run_all", lambda seed=0: seeds.append(seed) or _stub_results())
    assert cli.main(["accept", "--json", "--seed", "7"]) == 0
    assert seeds == [7]
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["command"] == "accept"
    assert payload["all_passed"] is True
    assert [r["criterion"] for r in payload["results"]] == [n for n, _ in ALL_CRITERIA]


def test_run_all_passes_seed(monkeypatch):
    import weylcas.acceptance as acceptance

    stubs = [
        ("first stub", lambda seed: (True, f"seed {seed}")),
        ("second stub", lambda seed: (seed != 5, "ran")),
    ]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    assert acceptance.run_all(seed=5) == [
        ("first stub", True, "seed 5"),
        ("second stub", False, "ran"),
    ]
    assert acceptance.run_all()[0] == ("first stub", True, "seed 0")

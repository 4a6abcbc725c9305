"""Every ```python block of the README runs as written, and every CLI
example of its ```sh block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from weylcas.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
CLI_BLOCK = next(b for b in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
                 if "weylcas weyl-mul" in b)
# `accept` runs the whole battery, which tests/test_acceptance.py covers
CLI_EXAMPLES = [shlex.split(line, comments=True)[1:] for line in CLI_BLOCK.splitlines()
                if line.startswith("weylcas ") and not line.startswith("weylcas accept")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_cli_examples_found():
    assert len(CLI_EXAMPLES) == 14


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=[a[0] + str(i) for i, a in enumerate(CLI_EXAMPLES)])
def test_readme_cli_example_runs(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "lc-piece":
        assert out.strip() == "1"

"""A function in `src/weylcas` must have a caller outside the tests.

Every defined name must be a dunder, be exported in `weylcas.__all__`, be
used somewhere in `src/` other than its own `def` (as a name or an
attribute; an import alone is not a use), or be named in `perfbench/*.py`,
whose trace spans bind functions by name.  A helper that only the tests call belongs in
`tests/oracles.py` or in the test that uses it.
"""

import ast
import re
from pathlib import Path

import weylcas

ROOT = Path(__file__).resolve().parents[1]

# public API reached only from outside the package, with the reason
ALLOWED = {
    "from_presentation": "public constructor of ArtinAlgebra from variables and generators",
}


def test_every_function_in_src_has_a_caller_outside_the_tests():
    defined, used = set(), set()
    for path in sorted((ROOT / "src" / "weylcas").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = sorted(
        name for name in defined - used - set(weylcas.__all__) - set(ALLOWED)
        if not (name.startswith("__") and name.endswith("__"))
        and not re.search(rf"\b{re.escape(name)}\b", bench))
    assert unused == []
    assert set(ALLOWED) <= defined, "the allowlist names a function that is gone"


"""A function in `src/weylcas` must have a caller outside the tests.

Every defined name must be a dunder, be exported in `weylcas.__all__`, be
used in `src/`, or be named by the benchmark in `perfbench/*.py`.  In
`src/` a function counts as used through a name or an attribute other than
its own `def`, and a method (a `def` directly in a class body) only through
an attribute; an import alone is not a use.  In `perfbench/` a name counts
only where it names the weylcas object: imported from `weylcas`, an
attribute of anything but the benchmark's own polynomial module `Q`, or a
function in the span table of `perfbench/spans.py`, whose trace spans bind
functions by name.  A helper that only the tests call belongs in
`tests/oracles.py` or in the test that uses it.

Likewise an attribute that `src/weylcas` stores through `self.<name> =`
must be read somewhere in `src/` or `perfbench/*.py` (again not as an
attribute of `Q`): a value that only the tests read is computed for them
alone.
"""

import ast
from pathlib import Path

import weylcas

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# public API reached only from outside the package, with the reason
ALLOWED = {
    "from_presentation": "public constructor of ArtinAlgebra from variables and generators",
}


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def _src_uses():
    """The functions and the methods defined in `src/weylcas`, and the
    names and the attributes read there."""
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in sorted((ROOT / "src" / "weylcas").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_class = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                    for n in c.body if isinstance(n, DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                (methods if id(node) in in_class else functions).add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return functions, methods, names, attributes


def _bench_uses():
    """The weylcas names that `perfbench/*.py` reaches."""
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylcas"):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and not _is_name(node.value, "Q"):
                used.add(node.attr)
            elif (path.name == "spans.py" and isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] in (["SPANNED"], ["COUNTED"])):
                for _, _, qualified in ast.literal_eval(node.value):
                    used.update(qualified.split("."))
    return used


def test_every_function_in_src_has_a_caller_outside_the_tests():
    functions, methods, names, attributes = _src_uses()
    used_elsewhere = _bench_uses() | set(weylcas.__all__) | set(ALLOWED)
    unreached = ({f for f in functions if f not in names | attributes}
                 | {m for m in methods if m not in attributes})
    unused = sorted(name for name in unreached - used_elsewhere
                    if not (name.startswith("__") and name.endswith("__")))
    assert unused == []
    assert set(ALLOWED) <= functions | methods, "the allowlist names a function that is gone"


def test_every_attribute_stored_in_src_is_read_outside_the_tests():
    stored, read = set(), set()
    for path in sorted((ROOT / "src" / "weylcas").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        in_src = path.parent.name == "weylcas"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load) and not _is_name(node.value, "Q"):
                read.add(node.attr)
            elif in_src and isinstance(node.ctx, ast.Store) and _is_name(node.value, "self"):
                stored.add(node.attr)
    assert sorted(stored - read) == []

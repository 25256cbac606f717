"""Every name a liesys module imports is used there, or is marked as bound
only for perfbench/tracer.py, which wraps liesys functions at the module
attributes their callers look up."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liesys")
MARK = "# noqa: F401  bound for perfbench/tracer.py"
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(path) != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the module never reads, unless its
    import statement carries MARK."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(MARK in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used_or_marked(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_lint_sees_an_unused_import():
    source = ("import os\nimport sys\nfrom math import pi, tau\n"
              f"from math import e  {MARK}\nprint(sys.argv, pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "tau")]

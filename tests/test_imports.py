"""Every name a liesys module imports is used there, or is marked as bound
only for perfbench/tracer.py, which wraps liesys functions at the module
attributes their callers look up; and every private module-level name of
liesys is read somewhere in liesys."""

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


def dead_helpers(sources):
    """(module, name) of each module-level _name, dunders aside, defined in
    one of ``sources`` (module -> source) and read in none of them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names if name.startswith("_")
                     and not name.startswith("__") and name not in read]
    return dead


def test_every_private_helper_is_read():
    sources = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)] = fh.read()
    assert dead_helpers(sources) == []


def test_the_lint_sees_a_dead_helper():
    sources = {"a.py": ("import b\n_LIMIT, _SPARE = 1, 2\n__all__ = []\n"
                        "def _used():\n    return b._shared(_LIMIT)\n"
                        "def _dead():\n    _used()\nclass _Unused:\n    pass\n"),
               "b.py": "from a import _SPARE\ndef _shared(x):\n    return x\n"}
    assert dead_helpers(sources) == [("a.py", "_dead"), ("a.py", "_Unused")]

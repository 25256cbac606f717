"""Lints on the liesys sources:

- every name a module imports is read there, or its import is marked as
  bound for perfbench/tracer.py, which wraps liesys functions at the module
  attributes their callers look up, and the tracer wraps it in that module;
- every private module-level name is read somewhere in liesys;
- every public name is read in liesys outside __init__.py, in README's
  library example, or wrapped by the tracer;
- README's library example runs, and prints an error below 1e-8."""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "liesys")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
MARK = "# noqa: F401  bound for perfbench/tracer.py"
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(path) != "__init__.py")


def read_file(path):
    with open(path) as fh:
        return fh.read()


def tracer_patches(source):
    """(owner, attribute) of each binding that the tracer's ``_patch`` calls
    wrap, their loops over tuples unrolled: ("cli", "drift") is
    liesys.cli.drift and ("systems.SystemDef", "rhs") a method."""
    patches = set()

    def visit(node, bound):
        if (isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
                and isinstance(node.target, ast.Name)):
            for item in node.iter.elts:
                for child in node.body:
                    visit(child, {**bound, node.target.id: item})
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch"):
            owner, attr = (bound.get(getattr(arg, "id", None), arg)
                           for arg in node.args[:2])
            patches.add((ast.unparse(owner), attr.value))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(ast.parse(source), {})
    return patches


def unused_imports(source, patched):
    """(line, name) of each imported name the module never reads and whose
    import statement does not carry MARK, and of each name under MARK that
    is not in ``patched``, the names the tracer patches in this module."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any(MARK in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in (patched if marked else used):
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used_or_marked(path):
    module = os.path.splitext(os.path.basename(path))[0]
    patched = {attr for owner, attr in tracer_patches(read_file(TRACER))
               if owner == module}
    assert unused_imports(read_file(path), patched) == []


def test_the_lint_sees_an_unused_import():
    source = ("import os\nimport sys\nfrom math import pi, tau\n"
              f"from math import e  {MARK}\nprint(sys.argv, pi)\n")
    assert unused_imports(source, {"e"}) == [(1, "os"), (3, "tau")]


def test_the_lint_sees_a_stale_tracer_mark():
    tracer = ("def install(self):\n"
              "    for mod in (a, b):\n        self._patch(mod, 'pi', 'span')\n"
              "    for attr in ('tau', 'e'):\n        self._patch(a, attr, 'span')\n"
              "    self._patch(b.Shape, 'area', 'span')\n")
    assert tracer_patches(tracer) == {("a", "pi"), ("b", "pi"), ("a", "tau"),
                                      ("a", "e"), ("b.Shape", "area")}
    patched = {attr for owner, attr in tracer_patches(tracer) if owner == "a"}
    source = f"from math import pi, tau  {MARK}\nfrom math import e, inf  {MARK}\n"
    assert unused_imports(source, patched) == [(2, "inf")]


def loaded_attributes(trees):
    """Every attribute name the trees load."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def read_names(trees):
    """Every name the trees read: loaded names and attributes, and imports."""
    read = loaded_attributes(trees)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def module_level_names(tree):
    """The functions, classes and assigned names of a module's body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def dead_helpers(sources):
    """(module, name) of each module-level _name, dunders aside, defined in
    one of ``sources`` (module -> source) and read in none of them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    return [(module, name) for module, tree in trees.items()
            for name in module_level_names(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_every_private_helper_is_read():
    sources = {os.path.basename(path): read_file(path)
               for path in glob.glob(os.path.join(SRC, "*.py"))}
    assert dead_helpers(sources) == []


def test_the_lint_sees_a_dead_helper():
    sources = {"a.py": ("import b\n_LIMIT, _SPARE = 1, 2\n__all__ = []\n"
                        "def _used():\n    return b._shared(_LIMIT)\n"
                        "def _dead():\n    _used()\nclass _Unused:\n    pass\n"),
               "b.py": "from a import _SPARE\ndef _shared(x):\n    return x\n"}
    assert dead_helpers(sources) == [("a.py", "_dead"), ("a.py", "_Unused")]


def public_names(tree):
    """A module's public module-level names, and ``Class.member`` for each
    public method, property and dataclass or NamedTuple field of its public
    classes."""
    for name in module_level_names(tree):
        if not name.startswith("_"):
            yield name
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif (isinstance(member, ast.AnnAssign)
                      and isinstance(member.target, ast.Name)):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}"


def unread_public_names(sources, also_read):
    """(module, name) of each public name of ``sources`` (module -> source)
    that none of them reads and that is not in ``also_read``.  A member is
    matched by its attribute name alone, and only an attribute read counts
    for it, not a variable of the same name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = read_names(trees.values()) | set(also_read)
    attributes = loaded_attributes(trees.values()) | set(also_read)
    return [(module, name) for module, tree in trees.items()
            for name in public_names(tree)
            if name.rpartition(".")[2] not in (attributes if "." in name else names)]


def library_example():
    """The code of README's library example."""
    readme = read_file(os.path.join(ROOT, "README.md"))
    return re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)


def test_the_library_example_runs():
    run = subprocess.run([sys.executable, "-c", library_example()], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 1e-8


def test_every_public_name_is_read():
    # read in liesys outside __init__.py, in README's library example, or
    # patched by the tracer; the package's exports alone do not count
    also_read = read_names([ast.parse(library_example())]) | {
        attr for _, attr in tracer_patches(read_file(TRACER))}
    sources = {os.path.basename(path): read_file(path) for path in MODULES}
    assert unread_public_names(sources, also_read) == []


def test_the_lint_sees_an_unread_public_name():
    sources = {"a.py": ("import b\nLIMIT = 2\n"
                        "def used():\n    perimeter = b.Shape(LIMIT).area()\n"
                        "    return perimeter\n"
                        "def unused():\n    pass\n"),
               "b.py": ("from typing import NamedTuple\n"
                        "class Shape(NamedTuple):\n    side: float\n"
                        "    tag: str = ''\n"
                        "    def area(self):\n        return self.side ** 2\n"
                        "    @property\n    def perimeter(self):\n"
                        "        return 4 * self.side\n"
                        "class _Private:\n    def hidden(self):\n        pass\n")}
    assert unread_public_names(sources, {"used", "tag"}) == [
        ("a.py", "unused"), ("b.py", "Shape.perimeter")]

"""Source hygiene: every name a program module imports is used there,
every private module-level function or class is used somewhere in the
package, and no module imports scipy or numpy when it is imported (the
quadrature oracle loads them on its first integral)."""

import ast
from pathlib import Path

import airylog

SRC = Path(airylog.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert not unused, unused


def _dead_private_definitions(sources: dict) -> list:
    """Module-level ``_private`` functions and classes that no live
    top-level statement of any module in ``sources`` (name -> text)
    refers to, by name, as an attribute or in an import.  A definition
    used only by dead ones, or only by itself, is dead too."""
    defined = {}  # id of the statement -> (module, name, line)
    referenced = {}  # name -> ids of the top-level statements that mention it
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                defined[id(stmt)] = (module, stmt.name, stmt.lineno)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                referenced.setdefault(name, set()).add(id(stmt))
    dead = set()
    while True:
        more = {key for key, (_, name, _) in defined.items() if key not in dead
                and not referenced.get(name, set()) - dead - {key}}
        if not more:
            break
        dead |= more
    return sorted(f"{module}:{line} {name}"
                  for module, name, line in map(defined.get, dead))


def test_no_dead_private_helpers():
    sample = {"a.py": "def _used():\n    pass\n"
                      "def _dead(n):\n    return _dead(n - 1)\n"
                      "class _Kept:\n    pass\n"
                      "def _helper_of_dead():\n    pass\n"
                      "def _caller():\n    return _helper_of_dead()\n",
              "b.py": "from a import _used\nimport a\nx = a._Kept()\n"}
    assert _dead_private_definitions(sample) == [
        "a.py:3 _dead", "a.py:7 _helper_of_dead", "a.py:9 _caller"]
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert sources
    dead = _dead_private_definitions(sources)
    assert not dead, dead


#: packages only the oracle's quadrature needs, imported inside functions
LAZY = ("scipy", "numpy")


def _eager_imports(source: str, name: str) -> list:
    """Imports of LAZY packages that run when the module is imported: at
    module level or in a class body, not inside a function."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            out.extend(f"{name}:{child.lineno} {n}" for n in names
                       if n.split(".")[0] in LAZY)
            visit(child)

    visit(ast.parse(source))
    return out


def test_no_module_level_scipy_or_numpy_import():
    sample = ("import numpy as np\n"
              "try:\n    from scipy.special import airy\nexcept ImportError:\n    pass\n"
              "class C:\n    import scipy\n"
              "def f():\n    from scipy.integrate import quad\n")
    assert _eager_imports(sample, "sample") == [
        "sample:1 numpy", "sample:3 scipy.special", "sample:7 scipy"]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    eager = [e for p in modules
             for e in _eager_imports(p.read_text(encoding="utf-8"), p.name)]
    assert not eager, eager

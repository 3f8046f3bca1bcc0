"""Source hygiene: every name a program or test module imports is used
there, every private module-level function or class is used somewhere in
the package, every public definition is reached from the CLI or the
benchmark, every defaulted parameter is set by some caller in the
package or the benchmark, no module imports scipy or numpy when it is
imported (the quadrature oracle loads them on its first integral), every
pFq sum goes through ``kernel.hyp_sum``, each table-driven series engine
sums in one loop, and every exact polynomial row is a tuple of ints and
Fractions."""

import ast
from fractions import Fraction
from pathlib import Path

import airylog
from airylog.mellin1 import pq_row, reduce_family, reduce_In, reduce_Iprime
from airylog.mellin2 import pqr2_row, pqr_row
from airylog.zeta import zeta_eta_poly

SRC = Path(airylog.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


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
    modules = [p for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) > len(list(SRC.glob("*.py")))
    unused = [u for p in modules for u in _unused_imports(p)]
    assert not unused, unused


def _dead_private_definitions(sources: dict) -> list:
    """Module-level ``_private`` functions and classes that no live
    top-level statement of any module in ``sources`` (name -> text)
    refers to, by name, as an attribute or in an import.  A definition
    used only by dead ones, or only by itself, is dead too."""
    defined = {}  # id of the statement -> (module, name, line)
    referenced = {}  # name -> ids of the top-level statements that mention it
    # every tree stays alive to the end, so no two statements share an id
    trees = {module: ast.parse(text) for module, text in sources.items()}
    for module, tree in trees.items():
        for stmt in tree.body:
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


def _unreached_public_definitions(sources: dict, roots: dict,
                                  allowed=()) -> list:
    """Public definitions of ``sources`` (name -> text) that no root
    reaches.  Definitions are top-level functions and classes, the
    non-dunder methods of classes (``Class.method``) and module-level
    assignment targets; a dunder top-level function counts as public.
    Live code is every statement of ``roots`` (name -> text), the
    module-level statements of ``sources`` that define or import nothing,
    the definitions named in ``allowed`` and the bodies of reached
    definitions.  A definition is reached when live code mentions its name
    as a name or an attribute; an import mentions nothing."""
    defs = []  # (module, qualified name, line, name, nodes of its body)
    live = [ast.parse(text) for text in roots.values()]
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                own = stmt.decorator_list + stmt.bases + stmt.keywords
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        defs.append((module, f"{stmt.name}.{item.name}",
                                     item.lineno, item.name, [item]))
                    else:
                        own.append(item)
                defs.append((module, stmt.name, stmt.lineno, stmt.name, own))
            elif isinstance(stmt, ast.FunctionDef):
                defs.append((module, stmt.name, stmt.lineno, stmt.name, [stmt]))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for node in ast.walk(ast.Tuple(elts=targets)):
                    if isinstance(node, ast.Name):
                        defs.append((module, node.id, stmt.lineno, node.id,
                                     [stmt.value] if stmt.value else []))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                live.append(stmt)

    def mentioned(nodes) -> set:
        return {getattr(n, "id", getattr(n, "attr", None))
                for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    names = mentioned(live)
    reached = {i for i, d in enumerate(defs) if d[1] in allowed}
    names |= mentioned(node for i in reached for node in defs[i][4])
    while True:
        more = {i for i, d in enumerate(defs)
                if i not in reached and d[3] in names}
        if not more:
            break
        reached |= more
        names |= mentioned(node for i in more for node in defs[i][4])
    return sorted(f"{module}:{line} {qualified}"
                  for i, (module, qualified, line, name, _) in enumerate(defs)
                  if i not in reached
                  and (not name.startswith("_") or name.startswith("__")))


#: public definitions that no CLI path or benchmark reaches, and why each
#: stays
UNREACHED_ALLOWED = {
    "scorer_gi": "Scorer Gi, the base of the I0_scorer reference route",
    "I0_scorer": "second route for I_0 that tests compare I_hyp(0, a) with",
    "genfunc_xi": "generating function the xi ladder is tested against",
    "genfunc_lambda": "generating function the lambda ladder is tested "
                      "against",
    "genfunc2": "squared generating functions the xi2 ladder is tested "
                "against",
    "oracle_j_summand": "quadrature reference for the per-root J summand",
    "AiryState.wronskian": "Wronskian identity that tests check airy with",
    "j_term_grouped": "second route for the summand bracket j(a), through "
                      "the d_i regrouping, that tests compare j_term with",
    "constants_c_at_root": "at-root forms of the J_1 constants that tests "
                           "compare constants_c with",
}


def test_every_public_definition_is_reached():
    sample = {"a.py": "X = 1\nY = X + 1\nZ = 2\n"
                      "class C:\n    def used(self):\n        return Y\n"
                      "    def unused(self):\n        return Z\n"
                      "    def __repr__(self):\n        return 'c'\n"
                      "def f():\n    return C().used()\n"
                      "def g():\n    return h()\n"
                      "def h():\n    pass\n"
                      "def k():\n    return W\n"
                      "W, _V = 3, 4\n"
                      "from b import g\n"
                      "print(f)\n"}
    roots = {"r.py": "import a\n"}
    assert _unreached_public_definitions(sample, roots, ("k",)) == [
        "a.py:13 g", "a.py:15 h", "a.py:3 Z", "a.py:7 C.unused"]
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    roots = {str(p): p.read_text(encoding="utf-8")
             for p in sorted(BENCH.glob("*.py"))}
    roots["cli.py"] = sources["cli.py"]
    assert len(roots) > 1
    unreached = _unreached_public_definitions(sources, roots,
                                              tuple(UNREACHED_ALLOWED))
    assert not unreached, unreached
    # an entry that the CLI or the benchmark reaches leaves the list
    found = {u.split(" ", 1)[1]
             for u in _unreached_public_definitions(sources, roots)}
    assert set(UNREACHED_ALLOWED) <= found, found


def _unset_defaults(defining: dict, calling: dict) -> list:
    """Defaulted parameters of the functions in ``defining`` (name ->
    text) that no call in ``defining`` or ``calling`` sets, by keyword or
    by position.  Calls are matched by the called name alone; a class call
    sets its ``__init__``'s parameters, a method call skips ``self``, and
    a call with ``*args`` or ``**kwargs`` may set any of them."""
    params = []  # (module, line, function name, parameter, position)
    for module, text in defining.items():
        def visit(node, cls=None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, ast.FunctionDef):
                    args = child.args
                    pos = args.posonlyargs + args.args
                    shift = 1 if cls and not any(
                        getattr(d, "id", "") == "staticmethod"
                        for d in child.decorator_list) else 0
                    name = cls if child.name == "__init__" else child.name
                    first = len(pos) - len(args.defaults)
                    params.extend((module, child.lineno, name, arg.arg,
                                   i - shift)
                                  for i, arg in enumerate(pos) if i >= first)
                    params.extend((module, child.lineno, name, arg.arg, None)
                                  for arg, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                                  if d is not None)
                    visit(child)
        visit(ast.parse(text))
    keywords, positional, open_calls = set(), {}, set()
    for text in list(defining.values()) + list(calling.values()):
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                open_calls.add(name)
            keywords.update((name, k.arg) for k in node.keywords)
            positional[name] = max(positional.get(name, 0), len(node.args))
    return [f"{module}:{line} {name}({arg})"
            for module, line, name, arg, i in params
            if name not in open_calls and (name, arg) not in keywords
            and (i is None or positional.get(name, 0) <= i)]


def test_every_defaulted_parameter_is_set_by_a_caller():
    sample = {"a.py": "def f(x, k=1, *, t=2):\n    return g(x)\n"
                      "def g(x, n=3, m=4):\n    return x\n"
                      "class C:\n    def __init__(self, s=0):\n        pass\n"
                      "    def run(self, q=5):\n        return q\n"
                      "def h(r=6):\n    return r\n"}
    calls = {"b.py": "import a\na.f(1, 2)\na.g(1, m=0)\na.C().run(1)\n"
                     "a.h(*[1])\n"}
    assert _unset_defaults(sample, calls) == [
        "a.py:1 f(t)", "a.py:3 g(n)", "a.py:6 C(s)"]
    defining = {p.name: p.read_text(encoding="utf-8")
                for p in sorted(SRC.glob("*.py"))}
    calling = {str(p): p.read_text(encoding="utf-8")
               for p in sorted(BENCH.rglob("*.py"))}
    assert defining and calling
    unset = _unset_defaults(defining, calling)
    assert not unset, unset


def _value_classes(source: str, name: str) -> list:
    """Classes that declare a ``value`` field: by an annotation in the
    class body (a dataclass or ``NamedTuple`` field) or in ``__slots__``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                              ast.Name):
                fields.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__"
                    for t in stmt.targets):
                fields |= {c.value for c in ast.walk(stmt.value)
                           if isinstance(c, ast.Constant)}
        if "value" in fields:
            out.append(f"{name}:{node.lineno} {node.name}")
    return out


def test_value_carrying_dataclasses_live_in_results():
    # every computed or printed number travels as a TransformResult or a
    # Record; a new result shape belongs beside them or not at all
    sample = ("@dataclass(frozen=True)\nclass A:\n    value: float\n"
              "@dataclass\nclass B:\n    k: int\n"
              "class C:\n    value: float\n"
              "class D(NamedTuple):\n    id: str\n    value: float\n"
              "class E:\n    __slots__ = ('value', 'err_est')\n"
              "class F:\n    __slots__ = ('values',)\n"
              "    value = property(lambda self: self.values[0])\n")
    assert _value_classes(sample, "s") == [
        "s:2 A", "s:7 C", "s:9 D", "s:12 E"]
    found = [c for p in sorted(SRC.glob("*.py"))
             for c in _value_classes(p.read_text(encoding="utf-8"), p.name)]
    assert found
    assert all(c.startswith("results.py:") for c in found), found


#: the methods that make a class a value: set once, compared and hashed by
#: its fields; :class:`airylog.results.Frozen` defines them for every value
#: type, which subclasses it
VALUE_METHODS = ("__setattr__", "__delattr__", "__eq__", "__hash__")
#: classes outside results.py that define a VALUE_METHODS name, and why
VALUE_METHODS_ALLOWED = {
    "ddreal.py XReal": "a number, not a record: it compares and hashes by "
                       "the exact value it represents, as the equal float, "
                       "int or Fraction does",
}


def _value_method_classes(source: str, name: str) -> list:
    """Classes of ``source`` that define a VALUE_METHODS name in their
    body, by ``def`` or by assignment."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            defined = [getattr(t, "id", None)
                       for t in getattr(stmt, "targets", ())]
            defined.append(getattr(stmt, "name", None))
            if set(defined) & set(VALUE_METHODS):
                out.add(f"{name} {node.name}")
    return sorted(out)


def test_value_methods_live_in_results():
    sample = ("class A:\n    def __eq__(self, o):\n        return True\n"
              "class B:\n    __setattr__ = __delattr__ = f\n"
              "class C(A):\n    def __repr__(self):\n        return 'c'\n"
              "class D:\n    __slots__ = ('x',)\n")
    assert _value_method_classes(sample, "s") == ["s A", "s B"]
    found = {c for p in sorted(SRC.glob("*.py")) if p.name != "results.py"
             for c in _value_method_classes(p.read_text(encoding="utf-8"),
                                            p.name)}
    assert found == set(VALUE_METHODS_ALLOWED), found


#: the loops that write the ``ddreal`` error-free transforms out, each
#: paid for by its share of a warm ``run_validation()`` (its recorded
#: outputs replayed in its place): the pFq sums about 36%, the Airy
#: Maclaurin sums 8-11% and ``dd_exp``'s Taylor loop, under ``dd_ln``, 4%
#: once written out (5% before); ``_Ratios.extend`` splits the pFq rows.
#: Another write-out comes with its own end-to-end gain
WRITTEN_OUT = ("kernel.hyp_pfq", "kernel._Ratios.extend", "airy._fg_series",
               "ddreal.dd_exp")
#: the ``ddreal`` primitives, with ``dd_exp`` the only functions there that
#: split a float; every other one calls them
PRIMITIVES = ("ddreal.dd_split", "ddreal.dd_mul", "ddreal.dd_mul_f",
              "ddreal.dd_div_f", "ddreal.dd_sqr")
#: the names a written-out dd step uses
DD_STEPS = ("SPLITTER", "dd_split")


def _dd_step_uses(source: str, name: str) -> list:
    """Functions and methods of ``source`` (qualified by the module
    ``name``) that read a DD_STEPS name, as a name or an attribute; an
    import or an assignment reads nothing, a module-level read counts as
    the module's."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
                    child.ctx, ast.Load) and getattr(
                    child, "id", getattr(child, "attr", None)) in DD_STEPS:
                out.add(scope)
            visit(child, scope)

    visit(ast.parse(source), name)
    return sorted(out)


def test_only_the_hot_loops_write_dd_steps_out():
    sample = ("from .ddreal import SPLITTER, dd_split\nX = dd_split(1.0)\n"
              "class C:\n    def f(self, x):\n        return SPLITTER * x\n"
              "def g(x):\n    def h():\n        return ddreal.dd_split(x)\n"
              "    return h()\n"
              "def k(x):\n    '''no dd_split here'''\n    return x\n")
    assert _dd_step_uses(sample, "m") == ["m", "m.C.f", "m.g.h"]
    assert _dd_step_uses("SPLITTER = 2.0 ** 27 + 1\n", "m") == []
    found = [u for p in sorted(SRC.glob("*.py"))
             for u in _dd_step_uses(p.read_text(encoding="utf-8"), p.stem)]
    assert sorted(found) == sorted(WRITTEN_OUT + PRIMITIVES), found


#: the one path of a pFq sum: each function's only caller in the package
PFQ_PATH = {"hyp": ["kernel.hyp_sum"], "hyp_pfq": ["kernel.hyp"]}


def _callers(source: str, name: str, callees) -> dict:
    """The functions and methods of ``source`` (qualified by the module
    ``name``) that call each of ``callees``, by name or as an attribute;
    a module-level call counts as the module's."""
    out = {c: set() for c in callees}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                called = getattr(child.func, "id",
                                 getattr(child.func, "attr", None))
                if called in out:
                    out[called].add(scope)
            visit(child, scope)

    visit(ast.parse(source), name)
    return {c: sorted(s) for c, s in out.items()}


def test_every_pfq_sum_goes_through_hyp_sum():
    sample = ("from . import kernel\nX = kernel.hyp(1)\n"
              "def f(t):\n    return [hyp(p) for p in t]\n"
              "class C:\n    def g(self):\n        return hyp_pfq(2)\n")
    assert _callers(sample, "m", PFQ_PATH) == {"hyp": ["m", "m.f"],
                                               "hyp_pfq": ["m.C.g"]}
    found = {c: [] for c in PFQ_PATH}
    for p in sorted(SRC.glob("*.py")):
        for c, s in _callers(p.read_text(encoding="utf-8"), p.stem,
                             PFQ_PATH).items():
            found[c] += s
    assert found == PFQ_PATH, found


#: the series engines that sum over a table declared beside them, so that
#: one ``dd_add`` in a loop body adds every term
TABLE_LOOPS = {"mellin2": ("irreducible_neg1", "_bsums")}


def _loop_dd_adds(source: str, name: str) -> int:
    """The ``dd_add`` calls, by name or as an attribute, in the loop bodies
    (of ``for``, ``while`` and comprehensions, nested ones once) of the
    top-level function ``name`` of ``source``."""
    fn = next(n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == name)
    bodies = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.While)):
            bodies += node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            bodies.append(node.elt)
        elif isinstance(node, ast.DictComp):
            bodies += [node.key, node.value]
    return len({id(c) for body in bodies for c in ast.walk(body)
                if isinstance(c, ast.Call) and getattr(
                    c.func, "id", getattr(c.func, "attr", None)) == "dd_add"})


def test_each_table_engine_adds_in_one_loop():
    sample = ("def f(t):\n    s = dd_add(0, 0)\n    for r in t:\n"
              "        for n in r:\n            s = dd_add(s, n)\n"
              "    return dd_add(s, [dd_add(x, 1) for x in t])\n"
              "def g(t):\n    while t:\n        t = ddreal.dd_add(t, 1)\n")
    assert _loop_dd_adds(sample, "f") == 2
    assert _loop_dd_adds(sample, "g") == 1
    found = {(m, n): _loop_dd_adds((SRC / f"{m}.py").read_text(
                 encoding="utf-8"), n)
             for m, names in TABLE_LOOPS.items() for n in names}
    assert found == dict.fromkeys(found, 1), found


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


def _package_imports(source: str) -> set:
    """Modules of the package that ``source`` imports, at any depth of its
    tree: ``from .m import x`` and ``from . import m`` both name m."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= ({node.module.split(".")[0]} if node.module
                    else {alias.name for alias in node.names})
    return out


#: the analytic layers, which the oracle certifies and so must not reach
ANALYTIC = ("ddreal", "errors", "results", "kernel", "airy", "roots", "zeta",
            "mellin1", "mellin2", "stieltjes1", "stieltjes2")


def test_the_analytic_layers_do_not_reach_the_oracle():
    # the oracle shares no code with what it certifies, and an analytic
    # call never loads scipy through it
    assert _package_imports("from . import roots as r\nfrom .airy import x\n"
                            "def f():\n    from .oracle import y\n"
                            "import math\nfrom math import pi\n") == {
        "roots", "airy", "oracle"}
    graph = {p.stem: _package_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert set(ANALYTIC) <= set(graph)
    for module in ANALYTIC:
        reached, todo = set(), [module]
        while todo:
            new = graph[todo.pop()] - reached
            reached |= new
            todo.extend(new)
        assert not reached & {"oracle", "validate", "cli"}, (module, reached)
    assert graph["oracle"] <= {"errors", "ddreal", "results"}, graph["oracle"]


#: the modules that pick a route for an argument a, which they do through
#: the routes' declared domains (``Domain.holds``), never by a bound of
#: their own
ROUTE_PICKERS = ("cli.py", "validate.py")
#: the bound constants that the route domains replaced
OLD_BOUNDS = ("SMALLA_MAX", "CLOSED_MIN", "CLOSED_MAX", "SOLVE_J1_A",
              "J_SMALLA_A_MAX", "J_CLOSED_MAX", "_IRREDUCIBLE_A_MAX")
#: the routes whose declared domain is what they accept, by module: each
#: refuses the rest by ``Domain.check``, itself or through the one helper
#: of its module, and compares a with no bound of its own
CHECKED_ROUTES = {
    "stieltjes1.py": ("bigI1_closed",),
    "stieltjes2.py": ("solve_J1",),
    "mellin1.py": ("_base", "mellin_closed", "mellin_family", "mellin_prime"),
    "mellin2.py": ("irreducible_neg1", "_product_base", "calI", "calI_bform",
                   "mellin2", "Jn_smalla"),
}


def _own_bounds(source: str, name: str) -> list:
    """Comparisons of ``source`` that set ``a`` or ``args.a`` against a
    number or an upper-case name (``X``, ``X.hi``, ``X[k]``)."""
    def is_a(node):
        return (isinstance(node, ast.Name) and node.id == "a"
                or isinstance(node, ast.Attribute) and node.attr == "a"
                and getattr(node.value, "id", None) == "args")

    def is_bound(node):
        return any(isinstance(n, ast.Constant) and type(n.value) in (int, float)
                   or isinstance(n, ast.Name) and n.id.isupper()
                   for n in ast.walk(node))

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_a, operands)) and any(
                    is_bound(o) for o in operands if not is_a(o)):
                out.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return sorted(out)


def test_routes_are_picked_by_their_declared_domains():
    # the CLI once printed the moment series from its own a > 8.0
    sample = ("if a > 8.0 and k == 1:\n    pass\n"
              "if args.a <= CLOSED.hi or a < -1:\n    pass\n"
              "x = a <= J_MAX[k]\ny = SMALLA.holds(k, a) and b > 2.0\n"
              "z = args.tol <= 1e-6 and a == b\n")
    assert _own_bounds(sample, "s") == [
        "s:1 a > 8.0", "s:3 a < -1", "s:3 args.a <= CLOSED.hi",
        "s:5 a <= J_MAX[k]"]
    found = [b for module in ROUTE_PICKERS
             for b in _own_bounds((SRC / module).read_text(encoding="utf-8"),
                                  module)]
    for module, routes in CHECKED_ROUTES.items():
        text = (SRC / module).read_text(encoding="utf-8")
        defs = {n.name: n for n in ast.parse(text).body
                if isinstance(n, ast.FunctionDef)}
        for route in routes:
            calls = {getattr(n.func, "attr", getattr(n.func, "id", None))
                     for n in ast.walk(defs[route]) if isinstance(n, ast.Call)}
            assert calls & {"check", "_base", "_product_base"}, route
            found += _own_bounds(ast.get_source_segment(text, defs[route]),
                                 f"{module} {route}")
    assert not found, found
    names = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
             for p in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))}
    assert not names & set(OLD_BOUNDS), names & set(OLD_BOUNDS)


#: the functions that return exact polynomial rows, with the arguments
#: each is checked at (its whole range)
EXACT_ROWS = (
    (pq_row, range(121)),
    (pqr_row, range(61)),
    (pqr2_row, range(81)),
    (reduce_In, range(-60, 81)),
    (reduce_Iprime, range(-60, 81)),
    (reduce_family, range(81)),
    (zeta_eta_poly, range(2, 21)),
)


def _exact_tuple(value) -> bool:
    """A tuple whose items are ints, Fractions or such tuples: the one
    form of an exact polynomial, which ``kernel.poly_eval_dd`` evaluates
    and which hashes, so a memoised row can be shared."""
    return isinstance(value, tuple) and all(
        type(v) in (int, Fraction) or _exact_tuple(v) for v in value)


def test_exact_rows_are_int_and_fraction_tuples():
    assert _exact_tuple(((1, Fraction(1, 2)), (), Fraction(3)))
    assert not any(map(_exact_tuple, ([1], (1.0,), (True,), ({0: 1},))))
    wrong = [f"{fn.__name__}({arg})" for fn, args in EXACT_ROWS
             for arg in args if not _exact_tuple(fn(arg))]
    assert not wrong, wrong

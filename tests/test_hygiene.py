"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "catlog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_hygiene_check_sees_unused_imports():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os", "dumps"}
    quoted = ast.parse("from typing import List\ndef f(x: 'List[int]'): pass\n")
    assert set(_imported_names(quoted)) <= _used_names(quoted)


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level `_private` functions and classes, with their lines."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(trees) -> set[str]:
    """Names loaded, and attributes read, anywhere in the given trees."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    referenced = _references(trees.values())
    unused = sorted((name, line, module) for module, tree in trees.items()
                    for name, line in _private_definitions(tree).items()
                    if name not in referenced)
    assert not unused, "private helpers nothing in src/catlog refers to: " + ", ".join(
        f"{module}:{line} {name}" for name, line, module in unused)


def test_hygiene_check_sees_unreferenced_private_helpers():
    tree = ast.parse(
        "def _used(): pass\n"
        "def _unused(): _used()\n"
        "class _Kept: pass\n"
        "class _Dropped: pass\n"
        "def __dunder__(): pass\n"
        "x = obj._Kept\n")
    assert set(_private_definitions(tree)) - _references([tree]) == {"_unused", "_Dropped"}


STATUS_WORDS = {"yes", "no", "unknown", "verified", "confirmed", "refuted"}


def _status_words(tree: ast.Module) -> list[tuple[int, str]]:
    """String constants that spell a status word, with their lines."""
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in STATUS_WORDS)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "consequence.py"],
                         ids=lambda p: p.stem)
def test_status_words_only_in_consequence(path):
    found = _status_words(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} spells status words itself; import them from " \
        "consequence: " + ", ".join(f"{word!r} (line {line})" for line, word in found)


def test_hygiene_check_sees_status_words():
    tree = ast.parse('x = "yes"\nif s == "refuted": pass\ny = "yes, sir"\nz = f"{x} no"\n')
    assert _status_words(tree) == [(1, "yes"), (2, "refuted")]


def _imports_random(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "random"
               for node in ast.walk(tree))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "kleisli.py"],
                         ids=lambda p: p.stem)
def test_only_kleisli_imports_random(path):
    # the law suites in kleisli draw cases from an explicit seed; every
    # other check is exact or bounded, never sampled
    assert not _imports_random(ast.parse(path.read_text(), filename=str(path))), \
        f"{path.name} imports random"


def test_hygiene_check_sees_random_imports():
    assert _imports_random(ast.parse("import os, random\n"))
    assert _imports_random(ast.parse("def f():\n    from random import Random\n"))
    assert not _imports_random(ast.parse("import randomness\nx = random\n"))


CACHES = {"lru_cache", "cache"}


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines that use functools' `lru_cache` or `cache` without a finite
    integer `maxsize` written out: bare, unbounded or computed."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_cache(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules)

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_cache(node.func):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            size = sizes[0] if sizes else None
            if not (isinstance(size, ast.Constant) and type(size.value) is int
                    and size.value > 0):
                found.append(node.lineno)
        elif is_cache(node) and id(node) not in called:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_cache_has_a_finite_maxsize(path):
    # module-level caches live as long as the process, so an unbounded one
    # grows the peak memory of every long run
    lines = _unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: caches without a finite integer maxsize at " \
        f"lines {lines}"


def test_hygiene_check_sees_unbounded_caches():
    tree = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, cache as memo, reduce\n"
        "@lru_cache(maxsize=64)\n"
        "def a(): pass\n"
        "@lru_cache\n"
        "def b(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def c(): pass\n"
        "@memo\n"
        "def d(): pass\n"
        "@functools.lru_cache(32)\n"
        "def e(): pass\n"
        "@ft.cache\n"
        "def f(): pass\n"
        "g = functools.lru_cache(maxsize=SIZE)(len)\n"
        "cache = {}\n"
        "h = cache.get(1)\n"
        "i = reduce(max, [1])\n")
    assert _unbounded_caches(tree) == [6, 8, 10, 14, 16]


MATRIX_INTERNALS = {"_flat", "_flatten", "_designated_at", "_column_table"}


def _format_leaks(tree: ast.Module, tables_reader: str = "") -> list[tuple[int, str]]:
    """Lines that build a proof `Step`, touch a matrix's flattened tables,
    designation or column table, or read `.tables` outside the function
    `tables_reader`."""
    allowed = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name == tables_reader for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "Step" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.append((node.lineno, "Step"))
        elif isinstance(node, ast.Attribute) and (
                node.attr in MATRIX_INTERNALS or node.attr == "tables" and id(node) not in allowed):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "consequence.py"],
                         ids=lambda p: p.stem)
def test_matrix_tables_and_proof_steps_only_in_consequence(path):
    # matrix tables are applied by Matrix.apply, columns kept by
    # Matrix.columns and proof steps written by ProofWriter; only the DSL
    # writer prints tables
    found = _format_leaks(ast.parse(path.read_text(), filename=str(path)),
                          "logic_to_dsl" if path.name == "dsl.py" else "")
    assert not found, f"{path.name} handles formats that belong to consequence: " + \
        ", ".join(f"{name} (line {line})" for line, name in found)


def test_hygiene_check_sees_format_leaks():
    tree = ast.parse(
        "s = Step(f, j)\n"
        "t = consequence.Step(f, j)\n"
        "flat = m._flat.get(c) or m._flatten(c, 2)\n"
        "d = m._designated_at[v]\n"
        "row = pulled.tables[c]\n"
        "def logic_to_dsl(m):\n"
        "    return m.tables\n"
        "Steps, x = Step, m.table(c)\n"
        "col = m._column_table[key][phi]\n")
    assert _format_leaks(tree, "logic_to_dsl") == [
        (1, "Step"), (2, "Step"), (3, "_flat"), (3, "_flatten"),
        (4, "_designated_at"), (5, "tables"), (9, "_column_table")]
    assert (7, "tables") in _format_leaks(tree)


def _provider_leaks(tree: ast.Module, attributes: set[str],
                    reader: str = "") -> list[tuple[int, str]]:
    """Lines that read one of `attributes` outside the function `reader`,
    or define `semantic_derives`."""
    allowed = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name == reader for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "semantic_derives":
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr in attributes and id(node) not in allowed:
            found.append((node.lineno, node.attr))
    return sorted(found)


def _provider_attributes(path: Path) -> set[str]:
    """The provider attributes a module may not read: consequence reads
    them all, quotient neither the oracle nor the matrix, the rest no
    oracle."""
    return {"consequence.py": set(), "quotient.py": {"oracle", "matrix"}}.get(
        path.name, {"oracle"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_provider_rule_only_in_consequence(path):
    # which provider may answer a query is decided by consequence.exact_matrix
    # and applied by consequence.derives; only the DSL writer reads the oracle
    found = _provider_leaks(ast.parse(path.read_text(), filename=str(path)),
                            _provider_attributes(path),
                            "logic_to_dsl" if path.name == "dsl.py" else "")
    assert not found, f"{path.name} goes around consequence.exact_matrix: " + \
        ", ".join(f"{name} (line {line})" for line, name in found)


def test_hygiene_check_sees_provider_leaks():
    tree = ast.parse(
        "if logic.oracle is not None: pass\n"
        "m = target.matrix\n"
        "def semantic_derives(logic): pass\n"
        "def logic_to_dsl(logic):\n"
        "    return logic.oracle\n"
        "logic.oracle = None\n"
        "oracle, matrix = bottom(sig), exact_matrix(logic)\n")
    assert _provider_leaks(tree, {"oracle", "matrix"}, "logic_to_dsl") == [
        (1, "oracle"), (2, "matrix"), (3, "semantic_derives")]
    assert _provider_leaks(tree, {"oracle"}) == [
        (1, "oracle"), (3, "semantic_derives"), (5, "oracle")]


JUSTIFICATION_TAGS = {"axiom", "rule", "hypothesis"}


def _tagged_justifications(tree: ast.Module) -> list[int]:
    """Lines of tuples that start with a justification's name as a string;
    justifications are `Hypothesis`, `AxiomInstance` and `RuleInstance`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Tuple) and node.elts
                  and isinstance(node.elts[0], ast.Constant)
                  and node.elts[0].value in JUSTIFICATION_TAGS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_justifications_are_objects_not_tagged_tuples(path):
    found = _tagged_justifications(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} tags justifications with strings; use " \
        "consequence's justification classes: " + ", ".join(f"line {line}" for line in found)


def test_hygiene_check_sees_tagged_justifications():
    tree = ast.parse(
        'a = ("axiom", i, sigma)\n'
        'b = ("hypothesis",)\n'
        'c = "rule", r, sigma, premises\n'
        'd = (kind, "axiom")\n'
        'e = ["rule", 1]\n'
        'f = recorded["axiom", 0]\n'
        'g = ("axioms", 0), ()\n')
    assert _tagged_justifications(tree) == [1, 2, 3, 6]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested_functions(function):
    """Functions defined in `function`'s own scope (not in a nested class or
    function), at any depth of its statements."""
    for node in ast.iter_child_nodes(function):
        if isinstance(node, _FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            yield from _nested_functions(node)


def _unreferenced_nested_functions(tree: ast.Module) -> list[tuple[int, str]]:
    """Nested functions that their enclosing function never refers to."""
    found = []
    for outer in ast.walk(tree):
        if isinstance(outer, _FUNCTIONS):
            loaded = {node.id for node in ast.walk(outer) if isinstance(node, ast.Name)}
            found += [(inner.lineno, f"{outer.name}.{inner.name}")
                      for inner in _nested_functions(outer) if inner.name not in loaded]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unreferenced_nested_functions(path):
    found = _unreferenced_nested_functions(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} defines nested functions it never uses: " + \
        ", ".join(f"{name} (line {line})" for line, name in found)


def test_hygiene_check_sees_unreferenced_nested_functions():
    tree = ast.parse(
        "def outer(xs):\n"
        "    def called(x): return x\n"
        "    def passed(x): return x\n"
        "    def dropped(x): return x\n"
        "    if xs:\n"
        "        def branch(): pass\n"
        "    class Local:\n"
        "        def method(self): pass\n"
        "    def middle():\n"
        "        def deep(): pass\n"
        "        return 1\n"
        "    return [called(x) for x in xs], sorted(xs, key=passed), middle\n")
    assert _unreferenced_nested_functions(tree) == [
        (4, "outer.dropped"), (6, "outer.branch"), (10, "middle.deep")]


def _command_handlers(tree: ast.Module) -> set[str]:
    """The handlers named in a `COMMANDS = {name: (handler, ...)}` table."""
    return {entry.elts[0].id for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(getattr(t, "id", None) == "COMMANDS" for t in node.targets)
            for entry in node.value.values
            if isinstance(entry, ast.Tuple) and isinstance(entry.elts[0], ast.Name)}


def _logic_oracles(tree: ast.Module) -> set[str]:
    """Functions given to `Logic` as its `oracle`."""
    return {k.value.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Logic"
            for k in node.keywords if k.arg == "oracle" and isinstance(k.value, ast.Name)}


def _receivers(tree: ast.Module) -> set[int]:
    """The ids of the first parameters of methods that are not static."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                params = [*f.args.posonlyargs, *f.args.args] \
                    if isinstance(f, _FUNCTIONS) else []
                if params and "staticmethod" not in {
                        getattr(d, "id", None) for d in f.decorator_list}:
                    found.add(id(params[0]))
    return found


def _unread_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    """Parameters that their function never reads, as `function.parameter`.
    Callbacks whose signature a caller fixes are exempt: command handlers,
    oracles given to `Logic`, and special methods other than `__init__`;
    so is a method's receiver."""
    exempt = _command_handlers(tree) | _logic_oracles(tree)
    receivers = _receivers(tree)
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, _FUNCTIONS) or function.name in exempt or (
                function.name.startswith("__") and function.name.endswith("__")
                and function.name != "__init__"):
            continue
        args = function.args
        loaded = {node.id for statement in function.body for node in ast.walk(statement)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(function.lineno, f"{function.name}.{arg.arg}")
                  for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                              *filter(None, (args.vararg, args.kwarg))]
                  if id(arg) not in receivers and arg.arg not in loaded]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    found = _unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} has parameters its functions never read: " + \
        ", ".join(f"{name} (line {line})" for line, name in found)


def test_hygiene_check_sees_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, **options):\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner\n"
        "def _run(env, args, budget):\n"
        "    return args\n"
        "def build(sig):\n"
        "    def oracle(gamma, phi, budget):\n"
        "        return None\n"
        "    def helper(gamma):\n"
        "        return sig\n"
        "    return Logic('L', sig, oracle=oracle), helper\n"
        "class C:\n"
        "    def __init__(self, x):\n"
        "        pass\n"
        "    def __setattr__(self, *_):\n"
        "        raise AttributeError\n"
        "    def method(self, y):\n"
        "        return y\n"
        "    @staticmethod\n"
        "    def static(z):\n"
        "        return 0\n"
        "COMMANDS = {'run': (_run, 'help', [])}\n")
    assert _unread_parameters(tree) == [
        (1, "f.b"), (1, "f.c"), (1, "f.options"), (1, "f.rest"),
        (10, "helper.gamma"), (14, "__init__.x"), (21, "static.z")]


def _caught(tree: ast.Module, function: str) -> list[str]:
    """The classes that the `except` clauses of the module-level function
    `function` name, dotted as written, sorted."""
    found = []
    for f in tree.body:
        if isinstance(f, _FUNCTIONS) and f.name == function:
            for node in ast.walk(f):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) \
                        else [node.type]
                    found += [ast.unparse(t) for t in types]
    return sorted(found)


@pytest.mark.parametrize("module, function, caught", [
    ("cli.py", "main", ["InputError", "OSError"]),
    ("dsl.py", "_reported_at", ["InputError"]),
], ids=["cli.main", "dsl._reported_at"])
def test_input_errors_are_caught_by_their_class(module, function, caught):
    # one class decides that an exception is the user's fault; anything
    # else these functions see is a bug and must end in a traceback
    path = PACKAGE / module
    assert _caught(ast.parse(path.read_text(), filename=str(path)), function) == caught


def test_hygiene_check_sees_caught_classes():
    tree = ast.parse(
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except (dsl.SpecError, KeyError) as exc:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "def other():\n"
        "    try:\n"
        "        run()\n"
        "    except OSError:\n"
        "        pass\n")
    assert _caught(tree, "main") == ["KeyError", "ValueError", "dsl.SpecError"]
    assert _caught(tree, "other") == ["OSError"]


# Exceptions that signal inside the package rather than report bad input:
# (module, enclosing function, what its `raise` names).
INTERNAL_SIGNALS = {
    ("formulas", "extend", "_head_error"),  # returns a StructuralError
    ("formulas", "check_formula", "_head_error"),
    ("formulas", "Formula.__setattr__", "AttributeError"),
    ("consequence", "Matrix.columns.column", "KeyError"),
    ("cli", "_count", "argparse.ArgumentTypeError"),
}


def _input_error_classes(trees) -> set[str]:
    """`InputError` and the classes defined in the trees that derive from it."""
    bases = {node.name: {ast.unparse(b).split(".")[-1] for b in node.bases}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = {"InputError"}
    while grown := {name for name, b in bases.items() if b & found} - found:
        found |= grown
    return found


def _raises(tree: ast.Module, scope: str = ""):
    """Each `raise` of a call or of a bare name: its line, the qualified name
    of the function it is in, and what it raises, dotted as written."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield from _raises(node, f"{scope}.{node.name}".lstrip("."))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, (ast.Name, ast.Attribute)):
                yield node.lineno, scope, ast.unparse(raised)
        else:
            yield from _raises(node, scope)


def _raise_leaks(trees: dict[str, ast.Module], allowed) -> list[tuple[str, int, str]]:
    """Raises that name neither an input error nor an allowed signal."""
    inputs = _input_error_classes(trees.values())
    return sorted((module, line, raised) for module, tree in trees.items()
                  for line, scope, raised in _raises(tree)
                  if raised.split(".")[-1] not in inputs
                  and (module, scope, raised) not in allowed)


def test_every_raise_is_an_input_error_or_an_internal_signal():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    leaks = _raise_leaks(trees, INTERNAL_SIGNALS)
    assert not leaks, "raises that are neither an InputError nor a listed internal " \
        "signal: " + ", ".join(f"{m}:{line} {raised}" for m, line, raised in leaks)


def test_hygiene_check_sees_raise_leaks():
    tree = ast.parse(
        "class InputError(ValueError): pass\n"
        "class SpecError(InputError): pass\n"
        "class Deeper(mod.SpecError): pass\n"
        "def load(text):\n"
        "    if not text:\n"
        "        raise SpecError('empty', 1)\n"
        "    raise ValueError('bad')\n"
        "class Box:\n"
        "    def get(self, key):\n"
        "        def inner():\n"
        "            raise KeyError(key)\n"
        "        try:\n"
        "            return inner()\n"
        "        except KeyError as exc:\n"
        "            raise mod.Deeper(str(exc)) from None\n"
        "    def signal(self):\n"
        "        raise _Stop\n"
        "def reraise():\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as exc:\n"
        "        raise\n")
    trees = {"m": tree}
    assert _input_error_classes(trees.values()) == {"InputError", "SpecError", "Deeper"}
    assert _raise_leaks(trees, set()) == [("m", 7, "ValueError"), ("m", 11, "KeyError"),
                                          ("m", 17, "_Stop")]
    assert _raise_leaks(trees, {("m", "Box.get.inner", "KeyError"),
                                ("m", "Box.signal", "_Stop")}) == [("m", 7, "ValueError")]


# Colimits of presented logics are built in one place: it joins the pushed
# presentations and writes the verbatim cocone.
COLIMIT_BUILDER = "_colimit_logic"
COLIMIT_STEPS = {"generated_join", "verbatim_translation"}


def _calls_outside(tree: ast.Module, names: set[str], function: str) -> list[tuple[int, str]]:
    """Calls of one of `names`, by name or as an attribute, outside the
    module-level function `function`."""
    allowed = {id(node) for f in tree.body if isinstance(f, _FUNCTIONS)
               and f.name == function for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_the_colimit_builder_joins_presentations(path):
    found = _calls_outside(ast.parse(path.read_text(), filename=str(path)),
                           COLIMIT_STEPS, COLIMIT_BUILDER)
    assert not found, f"{path.name} builds a colimit of presented logics by hand; " \
        f"call logic_cat.{COLIMIT_BUILDER}: " + \
        ", ".join(f"{name} (line {line})" for line, name in found)


def test_hygiene_check_sees_calls_outside_the_builder():
    tree = ast.parse(
        "def _colimit_logic(legs):\n"
        "    return generated_join(legs), verbatim_translation(legs)\n"
        "def fibring(a, b):\n"
        "    join = consequence.generated_join([a, b])\n"
        "    return join, verbatim_translation(a)\n"
        "step = generated_join\n")
    assert _calls_outside(tree, COLIMIT_STEPS, COLIMIT_BUILDER) == [
        (4, "generated_join"), (5, "verbatim_translation")]

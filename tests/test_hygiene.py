"""Lint: every name a module imports is read somewhere in that module,
every top-level function or class is used outside its own definition (a
private one by the program itself), every name the package exports is used
by the program or the acceptance gate, every name the benchmark's tracer
looks up in icotk exists, and a cold import of the command line stays
light."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "icotk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Where a use counts: the program (bar the package's re-exports), its tests,
# its scripts and the benchmark, which also names functions in strings.
USERS = MODULES + sorted(
    p for d in ("tests", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")
)


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, prod\nprint(gcd(os.sep, 1))\n")
    assert _unused_imports(tree) == ["prod (line 2)"]


def _names_used(nodes):
    """Names read, attributes taken and dotted parts of string constants."""
    used = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def _unused_defs(modules, users):
    """'module.name' for each top-level def or class of the given modules
    that no user file refers to outside that definition."""
    trees = {path: ast.parse(path.read_text()) for path in set(modules) | set(users)}
    elsewhere = {path: _names_used(ast.walk(trees[path])) for path in users}
    unused = []
    for path in modules:
        tree = trees[path]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            others = [n for top in tree.body if top is not node for n in ast.walk(top)]
            if node.name in _names_used(others):
                continue
            if not any(node.name in elsewhere[p] for p in users if p != path):
                unused.append(f"{path.stem}.{node.name}")
    return sorted(unused)


def test_every_top_level_def_is_used():
    assert _unused_defs(MODULES, USERS) == []


def test_the_check_sees_an_unused_def(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return helper()\n\n"
                   "def helper():\n    return 1\n\n"
                   "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
                   "class Named:\n    pass\n\n"
                   "def dead():\n    return used()\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used\nused()\nSPANS = ('lib.Named',)\n")
    assert _unused_defs([lib], [lib, user]) == ["lib.dead", "lib.recursive"]


def _private(names):
    return [name for name in names if name.split(".", 1)[1].startswith("_")]


def test_every_private_def_is_used_by_the_program():
    # code that only tests, scripts or the benchmark call moves into them
    assert _private(_unused_defs(MODULES, MODULES)) == []


def test_the_check_sees_a_private_def_only_tests_use(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def public():\n    return _kept()\n\n"
                   "def _kept():\n    return 1\n\n"
                   "def _tested():\n    return 2\n\n"
                   "def unused_public():\n    return 3\n")
    test = tmp_path / "test_lib.py"
    test.write_text("from lib import _tested, public, unused_public\n"
                    "assert public() + _tested() + unused_public()\n")
    assert _unused_defs([lib], [lib, test]) == []
    assert _private(_unused_defs([lib], [lib])) == ["lib._tested"]


def _defines(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)}


def _unused_exports(init, modules, users):
    """'module.name' for each name the package's __init__ re-exports that no
    user file reads and no module uses, bar the statement defining it and
    the definitions of other such names."""
    statements = [(path.stem, _defines(top), _names_used(ast.walk(top)))
                  for path in modules for top in ast.parse(path.read_text()).body]
    read = set().union(*(_names_used(ast.walk(ast.parse(p.read_text()))) for p in users))
    exports = {(node.module, alias.name) for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    unused, grew = set(), True
    while grew:
        grew = False
        for module, name in sorted(exports - unused):
            gone = unused | {(module, name)}
            if name not in read and not any(
                    name in names for stem, defined, names in statements
                    if not any(stem == m and n in defined for m, n in gone)):
                unused.add((module, name))
                grew = True
    return sorted(f"{m}.{n}" for m, n in unused)


def test_every_export_is_used_by_the_program_or_the_acceptance_gate():
    # an export that only tests call is code no command reaches
    users = [ROOT / "tests" / "test_acceptance.py"]
    assert _unused_exports(SRC / "__init__.py", MODULES, users) == []


def test_the_check_sees_an_export_only_tests_use(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .lib import LIMIT, accepted, called, chained, only_tested\n")
    (pkg / "lib.py").write_text(
        "LIMIT = 3\n\n"
        "def called():\n    return LIMIT\n\n"
        "def accepted():\n    return accepted\n\n"
        "def chained():\n    return called()\n\n"
        "def only_tested():\n    return chained()\n")
    (pkg / "cli.py").write_text("from .lib import called\n\ndef main():\n    called()\n")
    acceptance = tmp_path / "test_acceptance.py"
    acceptance.write_text("from pkg import accepted\naccepted()\n")
    modules = [pkg / "lib.py", pkg / "cli.py"]
    assert _unused_exports(pkg / "__init__.py", modules, [acceptance]) == [
        "lib.chained", "lib.only_tested"]


# -- the tracer contract ---------------------------------------------------------
# perfbench/tracing.py patches icotk by name, and program changes leave
# perfbench/ alone: a rename in icotk must not break a traced run unseen.

TRACING = ROOT / "perfbench" / "tracing.py"


def _tracer_lookups(tree):
    """(module, dotted path) pairs a tracer source looks up in icotk: its
    SPANNED table, the names it imports from icotk modules, and attribute
    chains on the icotk modules it imports."""
    pairs, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            pairs += [(module, path) for module, path, _ in ast.literal_eval(node.value)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "icotk":
            for alias in node.names:
                if node.module == "icotk":
                    modules[alias.asname or alias.name] = f"icotk.{alias.name}"
                else:
                    pairs.append((node.module, alias.name))
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in modules:
            pairs.append((modules[node.id], ".".join(reversed(parts))))
    return pairs


def _unresolved(pairs):
    """'module.path' for each pair that does not resolve to an object."""
    missing = []
    for module, path in pairs:
        try:
            obj = importlib.import_module(module)
            for part in path.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
    return sorted(set(missing))


def test_every_name_the_tracer_patches_exists():
    pairs = _tracer_lookups(ast.parse(TRACING.read_text()))
    for needed in [("icotk.algebra", "Poly.substitute"),
                   ("icotk.binaryforms", "interpolate"),
                   ("icotk.binaryforms", "ZZ"),
                   ("icotk.config", "cache_dir")]:
        assert needed in pairs
    assert _unresolved(pairs) == []


def test_the_tracer_calls_the_resultant_with_three_positional_arguments():
    from icotk.binaryforms import sylvester_resultant

    inspect.signature(sylvester_resultant).bind([1, 1], [1, 2], int)


def test_the_check_sees_a_missing_tracer_name():
    tree = ast.parse(
        "from icotk import algebra\n"
        "from icotk.binaryforms import no_such_name\n"
        "SPANNED = (('icotk.algebra', 'Poly.no_such_method', 'a.b'),\n"
        "           ('icotk.algebra', 'Poly.substitute', 'a.c'))\n"
        "algebra.Poly.exact_div\n"
        "algebra.no_such_attr\n")
    assert _unresolved(_tracer_lookups(tree)) == [
        "icotk.algebra.Poly.no_such_method",
        "icotk.algebra.no_such_attr",
        "icotk.binaryforms.no_such_name",
    ]


# -- what a cold command pays to import --------------------------------------------
# Each command is one cold process; these modules (dataclasses pulls in
# inspect, which pulls in dis, tokenize and linecache) cost it milliseconds.

HEAVY = ("dataclasses", "inspect", "traceback", "textwrap", "tokenize", "linecache")


def test_a_cold_import_of_the_cli_loads_no_heavy_module():
    code = ("import sys; before = set(sys.modules); import icotk.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "icotk.cli" in added
    assert sorted(added.intersection(HEAVY)) == []

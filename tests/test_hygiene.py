"""Lint: every name a module imports is read somewhere in that module,
every top-level function or class is used outside its own definition (a
private one by the program itself), every method of a library class bar the
dunders is read by the program or the acceptance gate, every name the
package exports is used by the program or the acceptance gate and resolves
in the module the package's table names, a constructor that skips its
checks has only its allowed callers, every name the benchmark's tracer looks
up in icotk exists and it installs after a cold import of the command line,
only binaryforms names its resultant engine (and plane_curves the entry
its base-point check calls), and a cold command stays light: no heavy
standard module, and no icotk module it does not reach."""

import ast
import importlib
import inspect
import json
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


# Module attribute hooks (PEP 562): the interpreter calls them, no file names them.
MODULE_HOOKS = ("__getattr__", "__dir__")


def _unused_defs(modules, users):
    """'module.name' for each top-level def or class of the given modules,
    bar the MODULE_HOOKS, that no user file refers to outside that definition."""
    trees = {path: ast.parse(path.read_text()) for path in set(modules) | set(users)}
    elsewhere = {path: _names_used(ast.walk(trees[path])) for path in users}
    unused = []
    for path in modules:
        tree = trees[path]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in MODULE_HOOKS:
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
                   "def dead():\n    return used()\n\n"
                   "def __getattr__(name):\n    return used()\n\n"
                   "def __getitem__(key):\n    return used()\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used\nused()\nSPANS = ('lib.Named',)\n")
    assert _unused_defs([lib], [lib, user]) == ["lib.__getitem__", "lib.dead", "lib.recursive"]


def _walk_outside(tree, skip):
    """ast.walk over tree, bar the subtree of the node skip."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _unused_methods(modules, users):
    """'module.Class.method' for each method, bar the dunders, of a top-level
    class of the given modules that no user file reads outside that method."""
    trees = {path: ast.parse(path.read_text()) for path in set(modules) | set(users)}
    read = {path: _names_used(ast.walk(trees[path])) for path in users}
    unused = []
    for path in modules:
        tree = trees[path]
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if path in users and node.name in _names_used(_walk_outside(tree, node)):
                    continue
                if not any(node.name in read[p] for p in users if p != path):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    return sorted(unused)


def test_every_method_is_read_by_the_program_or_the_acceptance_gate():
    # a method that only tests call is code no command reaches
    assert _unused_methods(MODULES, MODULES + [ROOT / "tests" / "test_acceptance.py"]) == []


def test_the_check_sees_an_unused_method(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Box:\n"
                   "    def __init__(self):\n        self.kept()\n\n"
                   "    def kept(self):\n        return 1\n\n"
                   "    @property\n    def size(self):\n        return 2\n\n"
                   "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
                   "    def accepted(self):\n        return 3\n\n"
                   "    def tested(self):\n        return 4\n\n"
                   "    def dead(self):\n        return self.kept()\n\n"
                   "def helper(box):\n    return box.size\n")
    acceptance = tmp_path / "test_acceptance.py"
    acceptance.write_text("from lib import Box\nBox().accepted()\n")
    test = tmp_path / "test_lib.py"
    test.write_text("from lib import Box\nBox().tested()\n")
    assert _unused_methods([lib], [lib, acceptance]) == [
        "lib.Box.dead", "lib.Box.recursive", "lib.Box.tested"]
    assert _unused_methods([lib], [lib, acceptance, test]) == ["lib.Box.dead", "lib.Box.recursive"]


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


def _export_table(init):
    """The {module: names} literal assigned to _EXPORTS in a package's __init__."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _EXPORTS table in {init}")


def _unused_exports(init, modules, users):
    """'module.name' for each name the package's __init__ exports that no
    user file reads and no module uses, bar the statement defining it and
    the definitions of other such names."""
    statements = [(path.stem, _defines(top), _names_used(ast.walk(top)))
                  for path in modules for top in ast.parse(path.read_text()).body]
    read = set().union(*(_names_used(ast.walk(ast.parse(p.read_text()))) for p in users))
    exports = {(module, name) for module, names in _export_table(init).items()
               for name in names}
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
        '_EXPORTS = {"lib": ("LIMIT", "accepted", "called", "chained", "only_tested")}\n')
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


def test_every_export_resolves_in_the_module_its_table_names():
    import icotk

    table = _export_table(SRC / "__init__.py")
    assert sorted(icotk.__all__) == sorted(n for names in table.values() for n in names)
    for module, names in table.items():
        owner = importlib.import_module(f"icotk.{module}")
        for name in names:
            value = getattr(icotk, name)
            assert vars(owner)[name] is value, f"icotk.{name} is not {module}.{name}"
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == owner.__name__, f"{module}.{name} is defined elsewhere"
    with pytest.raises(AttributeError, match="no_such_name"):
        icotk.no_such_name


# -- trusted constructors ----------------------------------------------------------
# A constructor that skips its checks, and the only functions of the program
# that may call it: each derives the checked property itself.
TRUSTED = [("integers.ProjPoint._canonical", ["fermat._expand"])]


def _callers(attr, modules):
    """'module.function' (or 'module.Class.method') for each top-level
    definition of the modules that reads the attribute attr."""
    found = set()
    for path in modules:
        for top in ast.parse(path.read_text()).body:
            defs = [top] if not isinstance(top, ast.ClassDef) else top.body
            for node in defs:
                if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node)):
                    name = getattr(node, "name", f"line {node.lineno}")
                    inner = f"{top.name}.{name}" if node is not top else name
                    found.add(f"{path.stem}.{inner}")
    return sorted(found)


@pytest.mark.parametrize("trusted, callers", TRUSTED, ids=[t for t, _ in TRUSTED])
def test_a_trusted_constructor_has_only_its_allowed_callers(trusted, callers):
    assert _callers(trusted.rsplit(".", 1)[1], MODULES) == callers


def test_the_check_sees_every_caller_of_a_trusted_constructor(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class P:\n    @classmethod\n    def _fast(cls, c):\n        return cls()\n\n"
                   "    def copy(self):\n        return P._fast(1)\n\n"
                   "def build():\n    return P._fast(2)\n\n"
                   "FAST = P._fast\n")
    assert _callers("_fast", [lib]) == ["lib.P.copy", "lib.build", "lib.line 12"]


# -- the resultant engine ------------------------------------------------------------
# Stage 2 interpolates nothing and strips roots by division: the engine in
# binaryforms serves the tests' oracle and the benchmark's tracer, and the
# program calls only sylvester_resultant, in plane_curves' base-point check.
ENGINE = ("sylvester_resultant", "_prs", "pseudo_remainder", "interpolate")
MAY_NAME = {"binaryforms": set(ENGINE), "plane_curves": {"sylvester_resultant"}}


def _names_engine(tree):
    """The ENGINE names a module reads, imports or spells as a string."""
    aliases = {part for node in ast.walk(tree) if isinstance(node, ast.alias)
               for part in (node.name.split(".")[-1], node.asname)}
    return sorted((_names_used(ast.walk(tree)) | aliases).intersection(ENGINE))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_resultant_engine_is_named_only_where_allowed(path):
    named = _names_engine(ast.parse(path.read_text()))
    assert set(named) <= MAY_NAME.get(path.stem, set()), named


def test_the_check_sees_a_module_naming_the_engine(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("from .binaryforms import interpolate as interp, strip_root\n"
                   "from . import binaryforms\n\n"
                   "def f(a, b):\n    return binaryforms._prs(a, b, 1, [])\n\n"
                   "HOOK = 'binaryforms.sylvester_resultant'\n")
    assert _names_engine(ast.parse(lib.read_text())) == [
        "_prs", "interpolate", "sylvester_resultant"]


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


def _fresh_python(*args):
    """A fresh interpreter run on args, this checkout's src first on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60, check=True)


def test_a_cold_import_of_the_cli_loads_no_heavy_module():
    code = ("import sys; before = set(sys.modules); import icotk.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = set(_fresh_python("-c", code).stdout.split())
    assert "icotk.cli" in added
    assert sorted(added.intersection(HEAVY)) == []


# The package registers every module unexecuted; a module has run once its
# type is plain ModuleType.  A light command runs none of these; a row whose
# command runs one says so (light is False), and its exact list is the check.
UNREACHED = ("algebra", "groebner", "ico_surface", "ico_models", "plane_curves", "fermat")

# What ``python -m icotk.cli ARG...`` does, in a script that then reports
# which icotk modules ran: runpy finds icotk.cli, warns (under -W error,
# fails) if it is already in sys.modules, and runs it as __main__.
RUN_AS_MAIN = """\
import json, runpy, sys, types
sys.argv = ["icotk", *sys.argv[1:]]
try:
    runpy.run_module("icotk.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
ran = sorted(name.split(".")[1] for name, module in sys.modules.items()
             if name.startswith("icotk.") and type(module) is types.ModuleType)
print(json.dumps({"code": code, "ran": ran}), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, ran, light", [
    (["bound", "thmE", "--nu", "1"], ["config", "errors", "heights", "integers"], True),
    (["--version"], ["config", "errors"], True),
    (["fermat", "unit-reduce", "-a", "1,-1,2,1,-3", "-n", "1", "-x", "1,1,1,1,1"],
     ["config", "errors", "fermat", "integers"], False),
    (["fermat", "z-scan", "-B", "30"], ["config", "errors", "fermat", "integers"], False),
    (["fermat", "scan", "-a", "1,1,1,1,1", "-n", "1", "-B", "30"],
     ["config", "errors", "fermat", "integers"], False),
    (["groebner", "-i", "x0"], ["algebra", "config", "errors", "groebner"], False),
    (["genus", "-n", "2"], ["config", "errors", "ico_models"], False),
    (["suite", "ttau"],
     ["algebra", "config", "errors", "groebner", "ico_surface", "integers"], False),
], ids=["bound-thmE", "version", "fermat-unit-reduce", "fermat-z-scan", "fermat-scan",
        "groebner", "genus", "suite-ttau"])
def test_a_cold_light_command_runs_only_the_modules_it_reaches(argv, ran, light):
    proc = _fresh_python("-W", "error", "-c", RUN_AS_MAIN, *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0
    if light:
        assert sorted(set(report["ran"]).intersection(UNREACHED)) == []
    assert report["ran"] == ran


def test_the_cli_reads_the_package_exports_on_first_access():
    # the cli binds no library name at import, yet icotk.cli.check_tau
    # resolves, once, to the package's export
    code = """\
import sys, types
import icotk.cli
from icotk import plane_curves
assert type(plane_curves) is not types.ModuleType
assert icotk.cli.check_tau is plane_curves.check_tau
assert vars(icotk.cli)["check_tau"] is plane_curves.check_tau
try:
    icotk.cli.expected_rank  # an ico_models name the package does not export
except AttributeError as exc:
    assert "icotk.cli" in str(exc), exc
else:
    raise AssertionError("icotk.cli.expected_rank resolved")
"""
    _fresh_python("-W", "error", "-c", code)


def test_the_tracer_installs_after_a_cold_import_of_the_cli():
    # Tracer.install imports icotk.cli, then reads sys.modules for every
    # SPANNED module; its lookups run the lazily registered modules
    code = f"""\
import sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import icotk.cli
from tracing import SPANNED, Tracer

def resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj

missing = sorted({{module for module, _, _ in SPANNED}} - set(sys.modules))
assert not missing, missing
before = [resolve(module, path) for module, path, _ in SPANNED]
cli_check = icotk.cli.check_tau
tracer = Tracer().install()
assert [resolve(module, path) for module, path, _ in SPANNED] != before
assert icotk.cli.check_tau is resolve("icotk.plane_curves", "check_tau") is not cli_check
tracer.uninstall()
assert [resolve(module, path) for module, path, _ in SPANNED] == before
assert icotk.cli.check_tau is cli_check
"""
    _fresh_python("-W", "error", "-c", code)

"""Source hygiene: imports are used, definitions referenced, CLI options read."""

import argparse
import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qbip
from qbip import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "qbip"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _unbounded_cache(node) -> bool:
    """Whether node makes an lru_cache with no maxsize bound, or a functools.cache."""
    func = node.func if isinstance(node, ast.Call) else node
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False  # a bare @lru_cache keeps 128 results
    size = next((k.value for k in node.keywords if k.arg == "maxsize"),
                node.args[0] if node.args else None)
    return isinstance(size, ast.Constant) and size.value is None


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_unbounded_caches_live_for_one_call(path):
    # a decorated cache lives as long as the module; one made inside a
    # function body lives for one call, so nothing is kept across trees
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [f for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    decorators = [d for f in functions for d in f.decorator_list]
    in_body = {id(n) for f in functions for stmt in f.body for n in ast.walk(stmt)}
    assert [d.lineno for d in decorators if _unbounded_cache(d)] == []
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and _unbounded_cache(n) and id(n) not in in_body] == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node) -> set:
    """Names read, attributes taken and words in string constants under node.

    Strings count because the benchmark's tracer names its targets in them.
    """
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.update(re.findall(r"\w+", sub.value))
    return refs


def test_every_definition_is_referenced():
    # a helper the code stopped using is deleted, not left behind; a
    # definition's references to itself do not count
    root = SRC.parent.parent
    regions = []  # (file, top-level definition or None, names referenced in it)
    for folder in (SRC, root / "tests", root / "bench"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                name = node.name if isinstance(node, _DEFINITIONS) else None
                regions.append((path, name, _references(node)))
    unused = [
        f"{path.name}: {name}"
        for path, name, _ in regions
        if path.parent == SRC and name is not None
        and not any(name in refs for other, owner, refs in regions
                    if (other, owner) != (path, name))
    ]
    assert unused == []


def test_every_quoted_private_name_is_defined():
    # a ``_name`` quoted in a docstring or comment names a function, class or
    # attribute of the package; one left behind by a deleted helper fails here
    defined, quoted = set(), []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, _DEFINITIONS):
                defined.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
        quoted += [(path.name, name) for span in re.findall(r"``(.+?)``", text)
                   for name in re.findall(r"\b_\w+", span)]
    assert [q for q in quoted if q[1] not in defined] == []


def test_every_quoted_dotted_name_resolves():
    # a ``module.name`` or ``Class.name`` quoted in the package, module being
    # a qbip module and Class a qbip class, names an attribute that exists;
    # one left behind by a deleted function or method fails here
    modules = {path.stem: importlib.import_module(f"qbip.{path.stem}")
               for path in SRC.glob("*.py") if path.stem not in ("__init__", "__main__")}
    owners = {"qbip": qbip, **modules}
    owners.update((name, obj) for m in modules.values() for name, obj in vars(m).items()
                  if isinstance(obj, type) and obj.__module__ == m.__name__)
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        for span in re.findall(r"``(.+?)``", path.read_text(encoding="utf-8")):
            for head, tail in re.findall(r"\b(\w+)((?:\.\w+)+)", span):
                if head not in owners:
                    continue
                obj = owners[head]
                for part in tail[1:].split("."):
                    if not hasattr(obj, part):
                        unresolved.append(f"{path.name}: {head}{tail}")
                        break
                    obj = getattr(obj, part)
    assert unresolved == []


def test_every_method_is_reached_by_attribute():
    # a method no code reaches as x.name outside its own body is dead: its
    # name may still occur elsewhere as a variable, a label or in a string,
    # so only attribute access counts
    root = SRC.parent.parent
    methods = []  # (file, class name, method node)
    by_name = {}  # attribute name -> (file, line) of each access
    for folder in (SRC, root / "tests", root / "bench"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    by_name.setdefault(node.attr, []).append((path, node.lineno))
                elif isinstance(node, ast.ClassDef) and path.parent == SRC:
                    methods += [(path, node.name, m) for m in node.body
                                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not (m.name.startswith("__") and m.name.endswith("__"))]
    unreached = [
        f"{path.name}: {cls}.{m.name}"
        for path, cls, m in methods
        if not any(other != path or not m.lineno <= line <= m.end_lineno
                   for other, line in by_name.get(m.name, ()))
    ]
    assert unreached == []


class _ReadLog(argparse.Namespace):
    """A namespace that records every attribute read from it."""

    def __init__(self):
        object.__setattr__(self, "reads", set())
        super().__init__()

    def __getattribute__(self, name):
        object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read_by_its_command(tmp_path, capsys):
    tree = tmp_path / "p4.json"
    tree.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3]]}))
    t, out = str(tree), str(tmp_path / "out.txt")
    runs = [
        ["show", "--tree", t, "--matrix", "qB", "--at", "2", "--format", "csv", "--out", out],
        ["invert", "--tree", t, "--matrix", "qB", "--oracle", "--at", "2",
         "--format", "pretty", "--out", out],
        ["verify", "--tree", t, "--out", out],
        ["verify", "--enumerate-upto", "4", "--threads", "1"],
        ["verify", "--random", "4,1", "--seed", "2", "--at", "2"],
        ["enum", "--p", "2", "--out", out],
        ["gen", "--p", "2", "--seed", "3", "--out", out],
        ["conjecture", "--upto", "4", "--format", "pretty", "--out", out],
    ]
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    read = {name: set() for name in commands}
    for argv in runs:
        args = parser.parse_args(argv, namespace=_ReadLog())
        args.reads.clear()  # what argparse itself looked at does not count
        assert args.fn(args) == 0, argv
        read[argv[0]] |= args.reads
    unread = {
        name: sorted({a.dest for a in sub._actions if a.dest != "help"} - read[name])
        for name, sub in commands.items()
    }
    assert unread == {name: [] for name in commands}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that pytest's own imports do not count
    code = "import sys, qbip.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

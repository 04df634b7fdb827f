"""Every name that cpsums exports has a consumer outside the tests, and every
private module-level name is read in its own module."""

import ast
from pathlib import Path

import cpsums

ROOT = Path(__file__).resolve().parent.parent


def library_and_demos():
    """The library modules but ``__init__``, which only re-exports, and the demos."""
    library = [p for p in (ROOT / "src" / "cpsums").glob("*.py") if p.name != "__init__.py"]
    return [*library, *(ROOT / "demos").glob("*.py")]


def consumer_files():
    """The library modules, the demos and the benchmark harness, without tests."""
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return [*library_and_demos(), *bench]


def names_read(path):
    """Names the file reads: names, attributes, import aliases, and string
    constants that are identifiers (perfbench wraps functions by name)."""
    seen = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                seen.add(node.value)
    return seen


def test_every_exported_name_has_a_consumer():
    files = consumer_files()
    assert len(files) > 10
    read = set().union(*map(names_read, files))
    assert sorted(set(cpsums.__all__) - read) == []


def unused_imports(path):
    """Names the file imports but never reads; ``__future__`` imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    files = library_and_demos()
    assert len(files) > 10
    unused = {path.name: sorted(unused_imports(path)) for path in files}
    assert {name: names for name, names in unused.items() if names} == {}


def private_definitions(tree):
    """Private module-level functions, classes and constants of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read():
    defined, unread = 0, {}
    for path in (ROOT / "src" / "cpsums").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = private_definitions(tree)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        defined += len(private)
        unread[path.name] = sorted(private - loaded)
    assert defined > 40
    assert {name: names for name, names in unread.items() if names} == {}

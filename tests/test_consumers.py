"""Every name that cpsums exports has a consumer outside the tests."""

import ast
from pathlib import Path

import cpsums

ROOT = Path(__file__).resolve().parent.parent


def consumer_files():
    """The library modules, the demos and the benchmark harness, without tests."""
    library = [p for p in (ROOT / "src" / "cpsums").glob("*.py") if p.name != "__init__.py"]
    demos = (ROOT / "demos").glob("*.py")
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return [*library, *demos, *bench]


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

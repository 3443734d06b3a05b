"""The library's surface: no name exists only for the tests, or for nothing.

A public top-level name of ``src/toepsharp`` must be exported from the
package ``__init__`` or used somewhere in the library, the scripts or
the benchmark, beyond its own definition.  A private (``_``) top-level
name must be read somewhere in the library beyond its definition.
Machinery that only the tests need lives under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toepsharp"


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _used_names(tree: ast.Module, modules: set[str]) -> set[str]:
    """Every name a module reads, reads off a toepsharp module, imports, or
    names in a string (lazy exports).  ``entry.fixtures`` is no use of a
    module-level ``fixtures``; ``catalog.fixtures`` is."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))
               if not p.name.startswith("test_")]
    trees = [*modules.values(), *map(_parse, callers)]
    used = set().union(*(_used_names(t, {"toepsharp", *modules}) for t in trees))
    unused = [f"{stem}.{name}" for stem, tree in modules.items()
              for name in sorted(_top_level_names(tree) - used)
              if not name.startswith("_")]
    assert unused == [], f"public names only the tests use: {unused}"


def test_every_private_name_is_read_in_the_library():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_used_names(t, {"toepsharp", *modules}) for t in modules.values()))
    dead = [f"{stem}.{name}" for stem, tree in modules.items()
            for name in sorted(_top_level_names(tree) - used)
            if name.startswith("_") and not name.endswith("__")]
    assert dead == [], f"private names the library never reads: {dead}"

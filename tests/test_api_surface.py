"""The library's surface: no name exists only for the tests, or for nothing.

A public top-level name of ``src/toepsharp`` must be used somewhere in the
library outside the package ``__init__``, in the scripts or in the
benchmark, beyond its own definition, or be named in README.md.  An
``__init__`` re-export alone is no use: it would keep alive any name the
tests import from the package.  A private (``_``) top-level name must be
read somewhere in the library beyond its definition.  Machinery that only
the tests need lives under ``tests/``.  The CLI is a client of the library:
it reads no private name of another toepsharp module.
"""

import ast
import re
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


def _readme_names() -> set[str]:
    """Every identifier in README.md's code: fenced blocks and `inline` spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, flags=re.DOTALL)
    code += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return set(re.findall(r"\w+", " ".join(code)))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).glob("*.py"))
               if not p.name.startswith("test_")]
    trees = [t for stem, t in modules.items() if stem != "__init__"]
    trees += map(_parse, callers)
    used = set().union(*(_used_names(t, {"toepsharp", *modules}) for t in trees))
    used |= _readme_names()
    unused = [f"{stem}.{name}" for stem, tree in modules.items()
              for name in sorted(_top_level_names(tree) - used)
              if not name.startswith("_")]
    assert unused == [], f"public names only the tests use: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_the_cli_reads_no_private_name_of_another_module():
    """Neither ``from .coeffs import _x`` nor ``coeffs._x``, under any local name of the
    module, in cli.py; a dunder such as ``__version__`` is public."""
    stems = {p.stem for p in PACKAGE.glob("*.py")}
    tree = _parse(PACKAGE / "cli.py")
    local, private = {"toepsharp"}, []  # local: the names cli.py binds to toepsharp modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("toepsharp")):
            private += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
            local |= {a.asname or a.name for a in node.names if a.name in stems}
        elif isinstance(node, ast.Import):
            local |= {a.asname or a.name for a in node.names if a.name.startswith("toepsharp")}
    private += [f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in local and _private(n.attr)]
    assert private == [], f"cli.py reads private library names: {private}"


def test_every_private_name_is_read_in_the_library():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(_used_names(t, {"toepsharp", *modules}) for t in modules.values()))
    dead = [f"{stem}.{name}" for stem, tree in modules.items()
            for name in sorted(_top_level_names(tree) - used)
            if name.startswith("_") and not name.endswith("__")]
    assert dead == [], f"private names the library never reads: {dead}"


def test_only_coeffs_names_the_coefficient_table():
    """``_TABLE``'s row layout is a ``coeffs`` format: every other module reads rows
    through ``coeffs.table``, and no text of theirs names the literal."""
    naming = [p.name for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "coeffs.py" and "_TABLE" in p.read_text()]
    assert naming == [], f"modules that name coeffs._TABLE: {naming}"


MAX_LINE = 100


def test_no_library_line_is_wider_than_the_limit():
    """Every line of ``src/toepsharp/*.py`` fits in ``MAX_LINE`` characters, so the
    ``src/`` line count is not lowered by joining lines past it."""
    wide = [f"{p.name}:{n}: {len(line)}" for p in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert sorted(PACKAGE.glob("*.py")), "no library files found"
    assert wide == [], f"lines wider than {MAX_LINE} characters: {wide}"


def _truth_tests(tree: ast.Module):
    """Every expression the module reads only for its truth value."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.comprehension):
            yield from node.ifs


def test_the_cli_reads_no_option_as_a_truth_value():
    """``if args.x``, ``args.x and ...``, ``not args.x`` or ``a if args.x else b``
    would take an empty string or a zero the user gave for an absent option; an
    option is compared, or checked with ``is None``, instead."""
    bare = [f"cli.py:{t.lineno}: args.{t.attr}" for t in _truth_tests(_parse(PACKAGE / "cli.py"))
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "args"]
    assert bare == [], f"options read as truth values: {bare}"

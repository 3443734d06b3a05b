"""Golden fixture for the exact side: CLI output bytes and bound reprs.

Pins the SHA-256 of the stdout of ``bound``, ``table``, ``sweep`` and
``extremal`` (with the exit code), of ``scripts/sweep_corollaries.py``,
and of ``repr(theorem_bound(...))`` on float generators, so that a
refactor of the bound or coefficient code that moves any byte fails here.

Run as a script to rewrite the fixture from the current code:
``PYTHONPATH=src python tests/test_exact_golden.py``.  It first prints to
stderr the keys it adds, removes and changes (``helpers.write_golden``).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import golden_diff, write_golden
from toepsharp.bounds import theorem_bound
from toepsharp.catalog import phi_coeffs
from toepsharp.cli import main
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec

GOLDEN = Path(__file__).parent / "data" / "exact_golden.json"
SWEEP_COROLLARIES = Path(__file__).parent.parent / "scripts" / "sweep_corollaries.py"

# the certificate_entries() generators (the lemniscate, B1 = 0, among them)
CATALOG_ARGS = (
    ("halfplane", ["--phi=halfplane"]),
    ("cardioid", ["--phi=cardioid"]),
    ("exp", ["--phi=exp"]),
    ("lune", ["--phi=lune"]),
    ("parabolic", ["--phi=parabolic"]),
    ("lemniscate", ["--phi=lemniscate"]),
    ("S*(1/4)", ["--phi=starlike-order", "--alpha=1/4"]),
    ("C(1/10)", ["--phi=convex-order", "--alpha=1/10"]),
    ("SS*(1/2)", ["--phi=strongly-starlike", "--beta=1/2"]),
    ("CC(4/5)", ["--phi=strongly-convex", "--beta=4/5"]),
    ("J[1/2,-1/2]", ["--phi=janowski", "--a=1/2", "--b=-1/2"]),
    ("J[1,0]", ["--phi=janowski", "--a=1", "--b=0"]),
)


def _raw_rationals(n: int = 20) -> list[tuple[str, list[str]]]:
    rng = random.Random(4)
    out = []
    for k in range(n):
        b1 = F(rng.randint(0, 30), rng.randint(1, 12))
        b2 = F(rng.randint(-30, 30), rng.randint(1, 12))
        b3 = F(rng.randint(-30, 30), rng.randint(1, 12))
        out.append((f"raw{k}", [f"--b1={b1}", f"--b2={b2}", f"--b3={b3}"]))
    return out


def _float_generators(n: int = 20) -> list[tuple[str, PhiSpec]]:
    rng = random.Random(5)
    out = [("parabolic", phi_coeffs("parabolic"))]
    for k in range(n):
        out.append((f"float{k}", PhiSpec(rng.uniform(0, 3), rng.uniform(-4, 4),
                                         rng.uniform(-4, 4))))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{code} {_digest(buf.getvalue())}"


def _sweep_corollaries(points: int) -> str:
    spec = importlib.util.spec_from_file_location("sweep_corollaries", SWEEP_COROLLARIES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        module.run(points)
    return _digest(buf.getvalue())


def _golden_cases():
    """(case id, thunk) for every output the fixture pins."""
    cases = []
    generators = CATALOG_ARGS + tuple(_raw_rationals())
    for name, gen in generators:
        for kind in ClassKind:
            for functional in FunctionalKind:
                for fmt in ("text", "json"):
                    argv = ["bound", f"--class={kind.value}",
                            f"--functional={functional.value}", *gen, f"--format={fmt}"]
                    cases.append((f"bound|{name}|{kind.value}|{functional.value}|{fmt}",
                                  lambda a=argv: _cli(a)))
            for fmt in ("text", "json"):
                for order in (4, 6):  # 6 pins the refusal: exit 2, nothing on stdout
                    argv = ["extremal", f"--class={kind.value}", *gen, f"--order={order}",
                            f"--format={fmt}"]
                    cases.append((f"extremal|{name}|{kind.value}|{order}|{fmt}",
                                  lambda a=argv: _cli(a)))
    for fmt in ("markdown", "csv", "json", "text"):
        cases.append((f"table|{fmt}", lambda f=fmt: _cli(["table", f"--format={f}"])))
    sweeps = (
        ("alpha", "0:9/10:1/20", "starlike", "t22-inv", []),
        ("beta", "1/10:1:1/20", "convex", "t22-log-inv", []),
        ("janowski-a", "-1/2:1:1/16", "starlike", "t21-log-inv", ["--b=-1"]),
        ("janowski-b", "-1:1/2:1/16", "convex", "t21-inv", ["--a=3/4"]),
    )
    for param, rng, kind, functional, fixed in sweeps:
        argv = ["sweep", f"--param={param}", f"--range={rng}", f"--class={kind}",
                f"--functional={functional}", *fixed]
        cases.append((f"sweep|{param}", lambda a=argv: _cli(a)))
    cases.append(("sweep_corollaries|50", lambda: _sweep_corollaries(50)))
    for name, phi in _float_generators():
        for kind in ClassKind:
            for functional in FunctionalKind:
                cases.append((f"repr|{name}|{kind.value}|{functional.value}",
                              lambda f=functional, k=kind, p=phi:
                                  _digest(repr(theorem_bound(f, k, p)))))
    return cases


_GOLDEN_CASES = _golden_cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _GOLDEN_CASES, ids=[c for c, _ in _GOLDEN_CASES])
def test_golden_bytes(case, golden):
    case_id, run = case
    assert run() == golden[case_id]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(c for c, _ in _GOLDEN_CASES)


def test_golden_diff_names_each_moved_key():
    old = {"a": "1 x", "b": "0 y", "c": [1, 2]}
    new = {"b": "0 y", "c": [1, 3], "d": "0 z", "e": "0 z"}
    assert golden_diff(old, new) == {"added": ["d", "e"], "removed": ["a"], "changed": ["c"]}
    assert golden_diff(new, new) == {"added": [], "removed": [], "changed": []}
    assert golden_diff({}, {"k": 0}) == {"added": ["k"], "removed": [], "changed": []}


def test_write_golden_reports_before_it_writes(tmp_path, capsys):
    path = tmp_path / "data" / "golden.json"
    write_golden(path, [("x", lambda: (0, "d")), ("y", lambda: "s")])
    assert json.loads(path.read_text()) == {"x": [0, "d"], "y": "s"}
    assert capsys.readouterr().err == ("golden.json: 2 added, 0 removed, 0 changed\n"
                                       "  added: x\n  added: y\n")
    # a tuple reads back as a list, so an unchanged tuple is no change
    write_golden(path, [("x", lambda: (0, "d")), ("z", lambda: "t")])
    assert capsys.readouterr().err == ("golden.json: 1 added, 1 removed, 0 changed\n"
                                       "  added: z\n  removed: y\n")
    text = path.read_text()
    write_golden(path, [("x", lambda: (1, "d")), ("z", lambda: "t")])
    assert capsys.readouterr().err == "golden.json: 0 added, 0 removed, 1 changed\n  changed: x\n"
    assert path.read_text() == text.replace("  0,", "  1,")


if __name__ == "__main__":
    write_golden(GOLDEN, _GOLDEN_CASES)

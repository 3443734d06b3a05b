"""The benchmark's four workloads: seeded inputs, one op each, and its check.

A workload is built from its seed alone and holds a pool of inputs; op
``k`` of a run uses ``inputs[k % len(inputs)]``, so the op sequence is a
pure function of the seed.  ``op`` is the timed unit of work and touches
the library only through module attributes (``oracle.maximize``, not a
name bound at import), so a tracer that swaps those attributes sees
every call.  ``check`` judges one result and returns ``None`` when it is
correct or a short reason when it is not; ``canon`` renders a result as
deterministic text for the run digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from toepsharp import bounds, catalog, extremal, oracle  # noqa: E402
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec  # noqa: E402

F = Fraction
REL_TOL = 1e-12          # attainment vs bound, and float fixture rows
LEMMA_TOL = 1e-9         # empirical lemma maximum vs its analytic floor
REGION_TOL = 1e-12       # boundary slack of the Omega regions
CLI_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class OpError:
    """An op that raised: counted as failed, never equal to a real result."""

    message: str


class Workload:
    name = ""
    round_len = 1       # a timed run stops only at a multiple of this
    inputs: list

    def op(self, x):
        raise NotImplementedError

    def check(self, x, r) -> str | None:
        raise NotImplementedError

    def canon(self, x, r) -> str:
        raise NotImplementedError

    def warmup(self) -> None:
        self.op(self.inputs[0])

    def verdict(self, x, r):
        """The oracle verdict of a result judged against a bound, else None."""
        return None


def _error(r) -> str | None:
    return f"raised {r.message}" if isinstance(r, OpError) else None


# ---------------------------------------------------------------------------
# oracle-sweep: oracle.maximize over every applicable catalog pair

def applicable_pairs():
    """(label, functional, class, phi) for every applicable catalog pair."""
    return [(label, f, kind, phi)
            for label, kind, phi in catalog.certificate_entries()
            for f in FunctionalKind
            if bounds.theorem_bound(f, kind, phi).applicable]


class OracleSweep(Workload):
    name = "oracle-sweep"
    bound_span = "bounds.theorem_bound"
    ROUNDS = 12

    def __init__(self, seed: int):
        pairs = applicable_pairs()
        rng = random.Random(seed)
        self.round_len = len(pairs)
        self.inputs = [(p, rng.randrange(2 ** 32))
                       for _ in range(self.ROUNDS) for p in pairs]

    def op(self, x):
        (_, f, kind, phi), s = x
        return oracle.maximize(f, kind, phi, seed=s)

    def op_at_budget(self, x, budget: int):
        (_, f, kind, phi), s = x
        return oracle.maximize(f, kind, phi, budget=budget, seed=s)

    def check(self, x, r):
        if isinstance(r, OpError):
            return _error(r)
        if not r.applicable:
            return "bound reported inapplicable"
        if r.verdict is not oracle.Verdict.SHARP_CONFIRMED:
            return f"verdict {r.verdict.value}, margin {r.margin!r}"
        return None

    def verdict(self, x, r):
        return None if isinstance(r, OpError) else r.verdict

    def canon(self, x, r):
        (label, f, kind, _), s = x
        if isinstance(r, OpError):
            return f"{label}|{f.value}|{s}|{r.message}"
        g = r.argmax
        return (f"{label}|{f.value}|{kind.value}|{s}|{r.verdict.value}|{r.bound!r}"
                f"|{r.empirical_max!r}|{g.gamma0!r}|{g.gamma1!r}|{g.gamma2!r}"
                f"|{r.refinement_iters}")


# ---------------------------------------------------------------------------
# lemma-scan: oracle.lemma1_scan on seeded (sigma, mu) points

def in_omega(sigma: float, mu: float) -> bool:
    """Membership in Omega1 | Omega2 | Omega3, from the lemma's statement."""
    s = abs(sigma)
    slack = max(min(2.0 - s, mu - 1.0),
                min(s - 2.0, 4.0 - s, mu - (sigma * sigma + 8.0) / 12.0),
                min(s - 4.0, mu - (2.0 / 3.0) * (s - 1.0)))
    return slack >= -REGION_TOL


class LemmaScan(Workload):
    """Each round draws one uniform point from every cell of a 16 x 16 grid
    over the box, so every round covers the box evenly and a run's op mix
    barely depends on the seed."""

    name = "lemma-scan"
    bound_span = "bounds.omega_region"
    BOX = ((-6.0, 6.0), (-1.0, 6.0))
    CELLS = 16
    ROUNDS = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        (s0, s1), (m0, m1) = self.BOX
        ds, dm = (s1 - s0) / self.CELLS, (m1 - m0) / self.CELLS
        self.round_len = self.CELLS ** 2
        self.inputs = []
        for _ in range(self.ROUNDS):
            sweep = [(s0 + (i + rng.random()) * ds, m0 + (j + rng.random()) * dm,
                      rng.randrange(2 ** 32))
                     for i in range(self.CELLS) for j in range(self.CELLS)]
            rng.shuffle(sweep)
            self.inputs += sweep

    def op(self, x):
        sigma, mu, s = x
        return oracle.lemma1_scan(sigma, mu, seed=s)

    def op_at_budget(self, x, budget: int):
        sigma, mu, s = x
        return oracle.lemma1_scan(sigma, mu, budget=budget, seed=s)

    def check(self, x, r):
        if isinstance(r, OpError):
            return _error(r)
        sigma, mu, _ = x
        emp, bound, verdict = r
        # gamma0 = 1 reaches |mu| and the gamma2 corner reaches 1
        if not emp >= max(abs(mu), 1.0) - LEMMA_TOL:
            return f"empirical max {emp!r} below max(|mu|, 1)"
        if in_omega(sigma, mu):
            if bound != abs(mu):
                return f"in-region bound {bound!r} is not |mu|"
            if verdict is not oracle.Verdict.SHARP_CONFIRMED:
                return f"in-region verdict {verdict.value}"
        elif bound is not None or verdict is not oracle.Verdict.VALID_NOT_ATTAINED:
            return f"out-of-region result {bound!r}, {verdict.value}"
        return None

    def verdict(self, x, r):
        return None if isinstance(r, OpError) or not in_omega(x[0], x[1]) else r[2]

    def canon(self, x, r):
        sigma, mu, s = x
        if isinstance(r, OpError):
            return f"{sigma!r}|{mu!r}|{s}|{r.message}"
        emp, bound, verdict = r
        return f"{sigma!r}|{mu!r}|{s}|{emp!r}|{bound!r}|{verdict.value}"


# ---------------------------------------------------------------------------
# exact-bounds: theorem_bound then attainment, no oracle and no numpy

@dataclass(frozen=True)
class BoundCase:
    kind: ClassKind
    functional: FunctionalKind
    phi: PhiSpec | None       # given directly (random generators) ...
    source: tuple             # ... or built in the op: ("fixture", name) / ("curve", curve, x)
    expected: object          # published value, or None for random generators


def _random_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    return F(rng.randint(lo, hi), rng.randint(1, 12))


def _interior(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A rational well inside (lo, hi), with a small denominator."""
    u = F(rng.randint(2, 98), 100)
    return (F(lo) + (F(hi) - F(lo)) * u).limit_denominator(10 ** 4)


class ExactBounds(Workload):
    """The random generators cycle through a fixed (class, functional) mix.

    A t22 op costs about twice a t21 op, so op times have two modes.  An
    even, randomly drawn mix puts the median in the gap between them, where
    it jumps with the seed; two t22 ops per t21 op keep it inside the t22
    mode, and the fixed cycle keeps the mix the same for every seed.
    """

    name = "exact-bounds"
    RANDOM = 2052           # 171 whole cycles of MIX
    CURVE_POINTS = 8
    MIX = tuple((kind, f) for kind in ClassKind for f in FunctionalKind
                for _ in range(2 if f in (FunctionalKind.T22_INV, FunctionalKind.T22_LOG_INV)
                               else 1))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for k in range(self.RANDOM):
            phi = PhiSpec(_random_fraction(rng, 1, 36), _random_fraction(rng, -36, 36),
                          _random_fraction(rng, -36, 36))
            kind, f = self.MIX[k % len(self.MIX)]
            cases.append(BoundCase(kind, f, phi, (), None))
        for entry in catalog.fixture_entries():
            for f, value in entry.fixtures:
                cases.append(BoundCase(entry.class_kind, f, None, ("fixture", entry.name), value))
        for curve in catalog.COROLLARY_CURVES:
            for _ in range(self.CURVE_POINTS):
                x = _interior(rng, curve.lo, curve.hi)
                cases.append(BoundCase(curve.class_kind, curve.functional, None,
                                       ("curve", curve, x), curve.expected(x)))
        rng.shuffle(cases)
        self.inputs = cases

    def op(self, c: BoundCase):
        phi = c.phi
        if phi is None:
            if c.source[0] == "fixture":
                phi = catalog.phi_coeffs(c.source[1])
            else:
                phi = c.source[1].phi_of(c.source[2])
        rep = bounds.theorem_bound(c.functional, c.kind, phi)
        att = extremal.attainment(c.functional, c.kind, phi)
        return phi, rep.bound, rep.applicable, att

    def check(self, c: BoundCase, r):
        if isinstance(r, OpError):
            return _error(r)
        phi, bound, applicable, att = r
        exact = all(isinstance(v, Fraction) for v in (phi.b1, phi.b2, phi.b3))
        if exact and not isinstance(bound, Fraction):
            return f"exact generator gave a {type(bound).__name__} bound"
        if applicable and not abs(att - float(bound)) <= REL_TOL * abs(float(bound)):
            return f"attainment {att!r} differs from bound {float(bound)!r}"
        if c.expected is not None:
            if not applicable:
                return "published value but hypotheses reported failing"
            if isinstance(c.expected, Fraction) and isinstance(bound, Fraction):
                if bound != c.expected:
                    return f"bound {bound} != published {c.expected}"
            elif not abs(float(bound) - float(c.expected)) <= REL_TOL * abs(float(c.expected)):
                return f"bound {float(bound)!r} != published {float(c.expected)!r}"
        return None

    def canon(self, c: BoundCase, r):
        head = f"{c.kind.value}|{c.functional.value}|{c.source[:1]}|{c.source[2:]}"
        if isinstance(r, OpError):
            return f"{head}|{r.message}"
        phi, bound, applicable, att = r
        return f"{head}|{phi.b1}|{phi.b2}|{phi.b3}|{bound}|{applicable}|{att!r}"


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per op

SUBCOMMANDS = ("bound", "table", "sweep", "extremal", "verify")
_FIXED_PHIS = ("halfplane", "cardioid", "exp", "lune", "parabolic", "lemniscate")
_FAMILIES = ("janowski", "starlike-order", "convex-order", "strongly-starlike", "strongly-convex")


def cli_env() -> dict:
    """The environment of every child interpreter: the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes]:
    """One fresh ``python -m toepsharp.cli`` process; (exit code, stdout)."""
    done = subprocess.run([sys.executable, "-m", "toepsharp.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=CLI_TIMEOUT_S, check=False)
    return done.returncode, done.stdout


def _opt(key: str, value) -> str:
    # --key=value keeps argparse from reading "-1/2" as an option
    return f"--{key}={value}"


def _generator_args(rng: random.Random) -> list[str]:
    """A generator selection from the documented valid domain."""
    pick = rng.randrange(3)
    if pick == 0:
        return [_opt("phi", rng.choice(_FIXED_PHIS))]
    if pick == 1:
        family = rng.choice(_FAMILIES)
        if family == "janowski":
            b = rng.randint(-100, 80)
            return [_opt("phi", family), _opt("a", F(rng.randint(b + 1, 100), 100)),
                    _opt("b", F(b, 100))]
        if family.endswith("order"):
            return [_opt("phi", family), _opt("alpha", F(rng.randint(0, 99), 100))]
        return [_opt("phi", family), _opt("beta", F(rng.randint(1, 100), 100))]
    return [_opt("b1", _random_fraction(rng, 1, 36)), _opt("b2", _random_fraction(rng, -36, 36)),
            _opt("b3", _random_fraction(rng, -36, 36))]


def _selectors(rng: random.Random) -> list[str]:
    return [_opt("class", rng.choice([k.value for k in ClassKind])),
            _opt("functional", rng.choice([f.value for f in FunctionalKind]))]


def _sweep_args(rng: random.Random) -> list[str]:
    param = rng.choice(("alpha", "beta", "janowski-a", "janowski-b"))
    step = F(1, rng.choice((100, 200, 400)))
    rows = rng.randint(10, 60)
    fixed: list[str] = []
    if param == "alpha":
        lo = F(rng.randint(0, 40), 100)
    elif param == "beta":
        lo = F(rng.randint(1, 40), 100)
    elif param == "janowski-a":
        lo = F(rng.randint(0, 40), 100)
        fixed = [_opt("b", F(-rng.randint(1, 100), 100))]
    else:
        lo = F(-rng.randint(60, 100), 100)
        fixed = [_opt("a", F(rng.randint(0, 100), 100))]
    hi = lo + (rows - 1) * step
    return ["sweep", _opt("param", param), _opt("range", f"{lo}:{hi}:{step}"),
            *_selectors(rng), *fixed]


def cli_argv(sub: str, rng: random.Random) -> list[str]:
    if sub == "bound":
        return ["bound", *_selectors(rng), *_generator_args(rng),
                _opt("format", rng.choice(("text", "json")))]
    if sub == "table":
        only = [_opt("only", rng.choice(_FIXED_PHIS))] if rng.random() < 0.5 else []
        return ["table", *only, _opt("format", rng.choice(("markdown", "csv", "json", "text")))]
    if sub == "sweep":
        return _sweep_args(rng)
    if sub == "extremal":
        return ["extremal", _opt("class", rng.choice([k.value for k in ClassKind])),
                *_generator_args(rng), _opt("order", rng.randint(2, 12)),
                _opt("format", rng.choice(("text", "json")))]
    return ["verify", *_selectors(rng), *_generator_args(rng), _opt("seed", rng.randrange(2 ** 16)),
            _opt("format", rng.choice(("text", "json")))]


def in_process_main(argv: list[str]) -> tuple[int, bytes, float]:
    """``cli.main`` in this process: (exit code, stdout, seconds)."""
    from toepsharp import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse rejects bad argv this way
            code = exc.code
    return code, buf.getvalue().encode(), time.perf_counter() - t0


class CliCold(Workload):
    name = "cli-cold"
    round_len = len(SUBCOMMANDS)
    POOL = 400

    def __init__(self, seed: int):
        from toepsharp import cli  # noqa: F401  (the in-process reference)

        rng = random.Random(seed)
        self.inputs = [tuple(cli_argv(SUBCOMMANDS[k % len(SUBCOMMANDS)], rng))
                       for k in range(self.POOL)]
        self.env = cli_env()
        self._reference: dict[tuple, tuple[int, bytes]] = {}
        self.main_seconds: dict[str, list[float]] = {s: [] for s in SUBCOMMANDS}

    def op(self, argv):
        return run_cli(list(argv), self.env)

    def reference(self, argv) -> tuple[int, bytes]:
        """The in-process result for ``argv``, timed the first time it is asked for."""
        if argv not in self._reference:
            code, out, seconds = in_process_main(list(argv))
            self._reference[argv] = (code, out)
            self.main_seconds[argv[0]].append(seconds)
        return self._reference[argv]

    def check(self, argv, r):
        if isinstance(r, OpError):
            return _error(r)
        code, out = r
        want_code, want_out = self.reference(argv)
        if code != want_code:
            return f"exit code {code}, in-process {want_code}"
        if out != want_out:
            return "stdout differs from in-process cli.main"
        return None

    def canon(self, argv, r):
        if isinstance(r, OpError):
            return f"{' '.join(argv)}|{r.message}"
        code, out = r
        return f"{' '.join(argv)}|{code}|{hashlib.sha256(out).hexdigest()}"


WORKLOADS = {w.name: w for w in (OracleSweep, LemmaScan, ExactBounds, CliCold)}

"""Command-line surface.

Subcommands:
    bound     closed-form sharp bound with hypothesis checklist
    table     regression table of every published numeric value
    verify    numerical maximization against the bound
    sweep     bound/attainment curve over a class parameter, as CSV
    extremal  coefficients and functional values of the extremal function

Exit codes: 0 success/applicable, 2 usage error (including an input
outside the floating-point range and an unwritable --out file), 3 bound
not applicable, 4 valid but not attained, 5 violation or table mismatch.
Output is rendered in full before anything is printed, so a command that
exits 2 prints nothing on stdout.

Only ``verify`` imports the numerical oracle, and with it numpy.  ``json``
loads only for ``--format json`` or ``--out``, and ``datetime`` only for
``--out``, so a text report starts on the exact modules alone.
"""

from __future__ import annotations

import argparse
import cmath
import os
import re
import sys
from collections.abc import Callable, Iterable
from enum import Enum
from fractions import Fraction

from . import __version__, bounds, catalog, extremal
from .coeffs import ClassKind, FunctionalKind, PhiSpec, Real

_REL_TOL = 1e-12  # between a computed table value and a published float (parabolic)

# A sweep computes every row before printing; this caps the work a tiny
# step can ask for (0:1:1/10000 is the largest decimal grid on [0, 1]).
MAX_SWEEP_ROWS = 10_001
# ``verify --budget`` above this (100 times the default) is refused, not run for hours.
MAX_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# serialization

def _json_default(x):
    """The JSON form of what ``json`` cannot encode: a record or dataclass is
    its fields, the ``__match_args__`` both define (``class_kind`` written as
    ``class``), a Fraction {"numerator", "denominator"} so exact values
    survive the round trip, a complex number {"re", "im"}, an enum its value.
    A record's non-finite float field is written as a string (``_finite``)."""
    if (names := getattr(type(x), "__match_args__", None)) is not None:
        return {("class" if n == "class_kind" else n): _finite(getattr(x, n)) for n in names}
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Enum):
        return x.value
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _finite(v):
    """A field value for JSON: a non-finite float as its repr ("inf", "-inf" or
    "nan"), since JSON has no number for it (a B1 = 0 margin is -inf)."""
    return repr(v) if isinstance(v, float) and not cmath.isfinite(v) else v


def _dump_json(report) -> str:
    import json

    return json.dumps(report, indent=2, sort_keys=True, default=_json_default)


def print_until_closed(chunks: Iterable[str]) -> bool:
    """Print and flush each chunk; False, drawing no more, once stdout's reader has gone."""
    try:
        for chunk in chunks:
            print(chunk, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet exit flush
        return False
    return True


def _write_run_record(path: str, argv: list[str], report, code: int) -> None:
    """The --out envelope: the report and what ran it; numpy's version only if the
    run loaded numpy (``verify``), never importing it here."""
    import datetime

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": " ".join(argv),
        "version": __version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "platform": sys.platform,
        "exit_code": code,
        "report": report,
    }
    try:
        with open(path, "w") as fh:
            fh.write(_dump_json(record) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write run record {path!r}: {exc.strerror or exc}") from exc


def _fmt_value(x: Real) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator} = {float(x):.12g}"
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# selector parsing

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")
_MAX_EXPONENT = 4300  # CPython's default int_max_str_digits, fixed whatever it is set to


def _fraction(text: str) -> Fraction:
    """Fraction(text), so '1/4', '0.25' or '3' stay exact, or ArgumentTypeError.

    Fraction expands a decimal exponent into an exact integer, at a cost
    that grows with it, so an exponent above _MAX_EXPONENT is refused first.
    """
    m = _EXPONENT.search(text)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"exponent of {text!r} exceeds {_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _resolve_phi(args) -> PhiSpec:
    raw = [args.b1, args.b2, args.b3]
    params = {key: getattr(args, key) for key in ("alpha", "beta", "a", "b")
              if getattr(args, key) is not None}
    if args.phi is None:
        if params:
            raise ValueError(f"--{next(iter(params))} needs --phi")
        if any(v is None for v in raw):
            raise ValueError("specify --phi NAME or all of --b1/--b2/--b3")
        return PhiSpec(*raw)
    if any(v is not None for v in raw):
        raise ValueError("--phi and raw --b1/--b2/--b3 are mutually exclusive")
    return catalog.phi_coeffs(args.phi, **params)


def _add_kinds(p: argparse.ArgumentParser, functional: bool = True) -> None:
    p.add_argument("--class", dest="class_kind", required=True,
                   choices=sorted(k.value for k in ClassKind), help="class kind")
    if functional:
        p.add_argument("--functional", required=True,
                       choices=sorted(f.value for f in FunctionalKind), help="Toeplitz functional")


def _add_selectors(p: argparse.ArgumentParser, functional: bool = True) -> None:
    _add_kinds(p, functional)
    p.add_argument("--phi", choices=sorted(catalog.PHI_NAMES),
                   help="catalog generator name")
    p.add_argument("--alpha", type=_fraction, help="order parameter")
    p.add_argument("--beta", type=_fraction, help="strong-class parameter")
    p.add_argument("--a", type=_fraction, help="Janowski A")
    p.add_argument("--b", type=_fraction, help="Janowski B")
    p.add_argument("--b1", type=_fraction, help="raw B1")
    p.add_argument("--b2", type=_fraction, help="raw B2")
    p.add_argument("--b3", type=_fraction, help="raw B3")


def _add_common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", metavar="FILE", help="persist a JSON run record")


# ---------------------------------------------------------------------------
# subcommands

# Each subcommand returns (exit code, report, text renderer). ``main`` alone
# turns that into output: the JSON of the report for --format json, else the
# renderer's lines; it writes the --out record of the report and only then
# prints. A report of None (sweep) has neither JSON nor a record.
_Result = tuple[int, object, Callable[[], list[str]]]


def cmd_bound(args) -> _Result:
    phi = _resolve_phi(args)
    report = bounds.theorem_bound(FunctionalKind(args.functional), ClassKind(args.class_kind), phi)

    def text() -> list[str]:
        lines = [f"bound: {_fmt_value(report.bound)}"]
        for h in report.hypotheses:
            mark = "ok" if h.satisfied else "FAIL"
            lines.append(f"  [{mark}] {h.name} (margin {h.margin:.6g})")
        if report.sigma_mu is not None:
            sm = report.sigma_mu
            lines.append(f"  sigma = {sm.sigma:.12g}, mu = {sm.mu:.12g}, "
                         f"region = {sm.region.value}")
        lines.append(f"  applicable: {report.applicable}")
        lines.append(f"  attained by: {report.witness}")
        return lines
    return (0 if report.applicable else 3), report, text


def cmd_table(args) -> _Result:
    rows = []
    for entry in catalog.fixture_entries():
        if args.only is not None and entry.name != args.only:
            continue
        for functional, expected in entry.fixtures:
            rep = bounds.theorem_bound(functional, entry.class_kind, entry.phi)
            att = extremal.attainment(functional, entry.class_kind, entry.phi)
            if isinstance(expected, Fraction):
                match = rep.bound == expected
            else:  # a published float (parabolic)
                match = abs(rep.bound - expected) <= _REL_TOL * abs(expected)
            match = match and att == rep.bound and rep.applicable
            rows.append({
                "name": entry.name,
                "class_label": entry.label,
                "class": entry.class_kind.value,
                "functional": functional.value,
                "expected": expected,
                "computed": rep.bound,
                "attained": float(att),
                "match": match,
                "notes": "",
            })
    if not rows:
        raise ValueError(f"no catalog entry named {args.only!r}")

    def text() -> list[str]:
        if args.format == "csv":
            return ["class,functional,expected,computed,attained,match"] + [
                f"{r['class_label']},{r['functional']},{float(r['expected'])!r},"
                f"{float(r['computed'])!r},{r['attained']!r},{str(r['match']).lower()}"
                for r in rows]
        # text / markdown
        return ["| class | functional | expected | computed | attained | match | notes |",
                "|---|---|---|---|---|---|---|"] + [
            f"| {r['class_label']} | {r['functional']} | {_fmt_value(r['expected'])} "
            f"| {_fmt_value(r['computed'])} | {r['attained']:.12g} "
            f"| {'yes' if r['match'] else 'NO'} | {r['notes']} |"
            for r in rows]
    return (0 if all(r["match"] for r in rows) else 5), {"rows": rows}, text


def cmd_verify(args) -> _Result:
    from . import oracle

    phi = _resolve_phi(args)
    if args.budget > MAX_BUDGET:
        raise ValueError(f"--budget needs N <= {MAX_BUDGET}, got {args.budget}")
    if args.budget < 1:
        raise ValueError(f"--budget needs N >= 1, got {args.budget}")
    if args.seed < 0:
        raise ValueError(f"--seed needs N >= 0, got {args.seed}")
    report = oracle.maximize(FunctionalKind(args.functional), ClassKind(args.class_kind), phi,
                             budget=args.budget, seed=args.seed)

    def text() -> list[str]:
        flag = "" if report.applicable else " (bound unproven: hypothesis fails)"
        return [
            f"verdict: {report.verdict.value}{flag}",
            f"  bound = {report.bound!r}",
            f"  empirical max = {report.empirical_max!r} (margin {report.margin:.3g})",
            f"  argmax gamma = ({report.argmax.gamma0:.6g}, "
            f"{report.argmax.gamma1:.6g}, {report.argmax.gamma2:.6g})",
            f"  samples = {report.samples_used}, refinement iters = "
            f"{report.refinement_iters}, seed = {report.seed}",
        ]
    code = {"SharpConfirmed": 0, "ValidNotAttained": 4, "VIOLATION": 5}[report.verdict.value]
    return code, report, text


def _parse_range(text: str) -> list[Fraction]:
    """The exact grid lo, lo + step, ... <= hi of at most MAX_SWEEP_ROWS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (_fraction(p) for p in parts)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"malformed range {text!r}: {exc}") from None
    if step <= 0 or hi < lo:
        raise ValueError(f"range needs step > 0 and hi >= lo, got {text!r}")
    n = (hi - lo) // step + 1
    if n > MAX_SWEEP_ROWS:
        raise ValueError(f"range {text!r} has {n} rows; at most {MAX_SWEEP_ROWS} allowed")
    return [lo + k * step for k in range(n)]


# --param -> (catalog generator, swept keyword, fixed Janowski partner); the
# order and strong generators are the same for both classes.
_SWEEPS = {
    "alpha": ("starlike-order", "alpha", None),
    "beta": ("strongly-starlike", "beta", None),
    "janowski-a": ("janowski", "a", "b"),
    "janowski-b": ("janowski", "b", "a"),
}


def cmd_sweep(args) -> _Result:
    grid = _parse_range(args.range)
    name, swept, fixed = _SWEEPS[args.param]
    for key in ("a", "b"):
        if (getattr(args, key) is not None) != (key == fixed):
            raise ValueError(f"{args.param} sweep needs fixed --{key}" if key == fixed
                             else f"--{key} does not apply to a {args.param} sweep")
    kind = ClassKind(args.class_kind)
    functional = FunctionalKind(args.functional)
    params = {fixed: getattr(args, fixed)} if fixed else {}
    lines = ["param,bound,applicable,attained"]
    for v in grid:
        phi = catalog.phi_coeffs(name, **params, **{swept: v})
        rep = bounds.theorem_bound(functional, kind, phi)
        att = extremal.attainment(functional, kind, phi)
        lines.append(f"{float(v)!r},{float(rep.bound)!r},"
                     f"{str(rep.applicable).lower()},{float(att)!r}")
    return 0, None, lambda: lines


def cmd_extremal(args) -> _Result:
    phi = _resolve_phi(args)
    kind = ClassKind(args.class_kind)
    if not 2 <= args.order <= 4:
        raise ValueError(f"--order must be in 2..4 (B1..B3 fix a2..a4 only), got {args.order}")
    coeffs = extremal.extremal_coeffs(kind, phi)  # a2..a4, b2..b4, Gamma1..Gamma3
    a, b, gamma = (1 + 0j, *coeffs[:args.order - 1]), coeffs[3:6], coeffs[6:]
    values = {f.value: float(extremal.attainment(f, kind, phi)) for f in FunctionalKind}
    if not all(map(cmath.isfinite, (*a, *b, *gamma, *values.values()))):
        raise OverflowError("a coefficient or functional of the extremal is not finite")

    def text() -> list[str]:
        lines = [f"a{m} = {c:.12g}" for m, c in enumerate(a, start=1)]
        lines.append("b2, b3, b4 = " + ", ".join(f"{x:.12g}" for x in b))
        lines.append("Gamma1, Gamma2, Gamma3 = " + ", ".join(f"{x:.12g}" for x in gamma))
        return lines + [f"{name} = {v!r}" for name, v in values.items()]
    report = {"class": kind, "phi": phi, "a": a, "b": b, "gamma": gamma, "functionals": values}
    return 0, report, text


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepsharp",
        description="Sharp Toeplitz determinant bounds for inverse coefficients "
                    "of subordination-defined starlike/convex classes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form sharp bound with hypotheses")
    _add_selectors(p)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="regression table of published values")
    p.add_argument("--only", help="restrict to one catalog generator")
    _add_common(p, formats=("markdown", "csv", "json", "text"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="numerical maximization against the bound")
    _add_selectors(p)
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="bound curve over a class parameter (CSV)")
    p.add_argument("--param", required=True, choices=tuple(_SWEEPS))
    p.add_argument("--range", required=True, metavar="LO:HI:STEP")
    _add_kinds(p)
    p.add_argument("--a", type=_fraction, help="fixed Janowski A")
    p.add_argument("--b", type=_fraction, help="fixed Janowski B")
    p.set_defaults(func=cmd_sweep, format="csv", out=None)

    p = sub.add_parser("extremal", help="extremal function coefficients")
    _add_selectors(p, functional=False)
    p.add_argument("--order", type=int, default=4, metavar="N", help="2..4")
    _add_common(p)
    p.set_defaults(func=cmd_extremal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parsed = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(parsed)
    try:
        code, report, render = args.func(args)
        lines = [_dump_json(report)] if args.format == "json" else render()
        if args.out is not None:
            _write_run_record(args.out, parsed, report, code)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OverflowError as exc:
        print(f"error: input outside the floating-point range ({exc})", file=sys.stderr)
        code = 2
    else:
        print_until_closed(["\n".join(lines)])
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Dump every parametric corollary curve as plot-ready CSV.

One row per (curve, grid point): the closed-form published value, the
theorem value, the attainment value, and the applicability flag.  The
theorem and attainment columns are the same exact value rounded once, and
the published column agrees with them to ~1e-15 wherever applicable.  A reader
that stops early (``| head``) ends the dump quietly, with exit 0.

    python3 scripts/sweep_corollaries.py [--points N] > curves.csv
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from toepsharp.bounds import theorem_bound  # noqa: E402
from toepsharp.catalog import COROLLARY_CURVES  # noqa: E402
from toepsharp.cli import print_until_closed  # noqa: E402
from toepsharp.extremal import attainment  # noqa: E402


def _rows(points: int):
    yield "label,functional,param,value,published,theorem,attained,applicable"
    for c in COROLLARY_CURVES:
        for k in range(points):
            # hi itself at the end: lo + (hi - lo) can round past a closed end (beta <= 1)
            x = float(c.hi) if k == points - 1 else c.lo + (c.hi - c.lo) * k / (points - 1)
            phi = c.phi_of(x)
            rep = theorem_bound(c.functional, c.class_kind, phi)
            att = attainment(c.functional, c.class_kind, phi)
            label = f'"{c.label}"' if "," in c.label else c.label  # S*[A,-1] holds a comma
            yield (f"{label},{c.functional.value},{c.param},{x!r},"
                   f"{float(c.expected(x))!r},{float(rep.bound)!r},{float(att)!r},"
                   f"{str(rep.applicable).lower()}")


def run(points: int) -> None:
    print_until_closed(_rows(points))


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--points", type=int, default=50, help="grid points per curve, >= 2")
    args = p.parse_args()
    if args.points < 2:
        p.error(f"--points needs N >= 2 (both interval ends), got {args.points}")
    run(args.points)

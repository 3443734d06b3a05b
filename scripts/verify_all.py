#!/usr/bin/env python3
"""Run the numerical oracle over every applicable (class, functional) pair.

For each catalog class (fixed classes plus one representative parameter
point per parametric family) and each functional whose closed-form bound
is applicable, maximize the functional over the coefficient body with
several seeds and report the verdict.  Exits nonzero if any run is not
SharpConfirmed, or if the reader of stdout stops early (``| head``): the
sweep then ends at once, and an unfinished sweep is no pass.

    python3 scripts/verify_all.py [--budget N] [--seeds K]
"""

import argparse
import sys
import time

from toepsharp.bounds import theorem_bound
from toepsharp.catalog import certificate_entries
from toepsharp.cli import MAX_BUDGET, print_until_closed
from toepsharp.coeffs import FunctionalKind
from toepsharp.oracle import Verdict, maximize


def _rows(budget: int, seeds: int, failed: list[bool]):
    t0 = time.perf_counter()
    yield f"{'class':14} {'functional':14} {'bound':>14} {'worst margin':>13} verdicts"
    for label, kind, phi in certificate_entries():
        for functional in FunctionalKind:
            if not theorem_bound(functional, kind, phi).applicable:
                continue
            reports = [maximize(functional, kind, phi, budget=budget, seed=s)
                       for s in range(seeds)]
            worst = min(r.margin for r in reports)
            verdicts = {r.verdict for r in reports}
            ok = verdicts == {Verdict.SHARP_CONFIRMED}
            failed.append(not ok)
            tags = "/".join(sorted(v.value for v in verdicts))
            yield (f"{label:14} {functional.value:14} {reports[0].bound:14.9g} "
                   f"{worst:13.3g} {tags}{'' if ok else '  <-- FAIL'}")
    yield f"\n{time.perf_counter() - t0:.1f}s, failures: {sum(failed)}"


def run(budget: int, seeds: int) -> int:
    failed: list[bool] = []
    finished = print_until_closed(_rows(budget, seeds, failed))
    return 0 if finished and not any(failed) else 1


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--budget", type=int, default=10 ** 5,
                   help=f"samples per run, 1 to {MAX_BUDGET}")
    p.add_argument("--seeds", type=int, default=3, help="runs per pair, >= 1")
    args = p.parse_args()
    if not 1 <= args.budget <= MAX_BUDGET:
        p.error(f"--budget needs N >= 1 and N <= {MAX_BUDGET}, got {args.budget}")
    if args.seeds < 1:
        p.error(f"--seeds needs N >= 1, got {args.seeds}")
    sys.exit(run(args.budget, args.seeds))

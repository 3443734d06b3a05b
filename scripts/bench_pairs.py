#!/usr/bin/env python3
"""Benchmark two git refs against each other in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json
        [--pairs WORKLOAD=N ...] [--seed S]

Without ``--pairs`` every workload of this repository's ``BENCHMARK.json``
runs 2 pairs; with it, only the workloads it names run.

Each ref is checked out into its own ``git worktree`` under a temporary
directory (``TMPDIR`` chooses where), and that checkout's
``perfbench/run.py`` runs there untraced, one workload run at a time,
for the ``run_seconds`` of the change's ``BENCHMARK.json``.
Pair k of a workload runs both refs on workload seed S + k, the parent
first when k is even and the change first when k is odd, so that
neither side always meets the warmer caches or the quieter machine.
The worktrees are removed afterwards, also when a run fails or the
script is stopped by SIGTERM (it then exits 128 + SIGTERM).

The record holds, per workload and end-to-end metric, each side's median
and quartiles, the pair count, the change's wins, losses and ties, the
metric's bound and whether the runs spread too widely to resolve it (the
better direction and the bound are read from the change's
``BENCHMARK.json``);
per workload the seeds and whether every pair's result digests agree;
both refs with their commit, ``src/`` tree id and ``src/`` line count
(``src_lines``, the lines of its ``*.py`` files); every run's metrics;
and the machine, Python and numpy versions that ``perfbench/run.py``
recorded.  Exits 0 when every run completed with every op correct, 1
when a run failed or an op was wrong, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = tuple(w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
DEFAULT_PAIRS = 2
RUN_TIMEOUT_S = 900     # run.py stops a timed pass at 60 s; set-up probes and children add to it


def schedule(pairs: dict[str, int], seed: int) -> list[tuple[str, int, tuple[str, str]]]:
    """(workload, seed, side order) of every pair, in the order they run."""
    return [(w, seed + k, ("parent", "change") if k % 2 == 0 else ("change", "parent"))
            for w, n in pairs.items() for k in range(n)]


def quartiles(xs: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], spec: dict[str, dict]) -> dict:
    """Per workload: the pair count, seeds, digest agreement, and per metric
    both sides' median and quartiles with the change's wins, losses and ties.

    ``runs`` holds one entry per pair: ``{"workload", "seed", "parent",
    "change"}``, each side ``{"metrics": {name: value}, "digest": str}``.
    ``spec`` maps each end-to-end metric to its ``BENCHMARK.json`` entry,
    ``{"better": "higher" or "lower", "bound": relative}``; metrics it does
    not name are left out.  A metric is ``unresolved`` when either side's
    interquartile spread exceeds its bound times the parent's median, unless
    every change run reads better than every parent run.  Pure: reads its
    arguments only.
    """
    out: dict = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == w]
        metrics = {}
        for name, m in spec.items():
            values = {side: [r[side]["metrics"][name] for r in pairs] for side in ("parent", "change")}
            sign = 1 if m["better"] == "higher" else -1
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            q = {side: quartiles(v) for side, v in values.items()}
            spread = max(q[side]["q3"] - q[side]["q1"] for side in q)
            separated = (min(sign * c for c in values["change"])
                         > max(sign * p for p in values["parent"]))
            metrics[name] = {"better": m["better"], "bound": m["bound"],
                             "parent": q["parent"], "change": q["change"],
                             "wins": sum(d > 0 for d in diffs),
                             "losses": sum(d < 0 for d in diffs),
                             "ties": sum(d == 0 for d in diffs),
                             "unresolved": (spread > m["bound"] * abs(q["parent"]["median"])
                                            and not separated)}
        out[w] = {"pairs": len(pairs), "seeds": [r["seed"] for r in pairs],
                  "digests_equal": all(r["parent"]["digest"] == r["change"]["digest"]
                                       for r in pairs),
                  "metrics": metrics}
    return out


def src_lines(root: Path) -> int:
    """Lines of every ``*.py`` file under ``root``, counted as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in root.rglob("*.py"))


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in a checkout: its metrics, digest and machine."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout.name} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": record["digest"],
            "machine": record["machine"]}


def bench(parent: str, change: str, pairs: dict[str, int], seed: int, workdir: Path) -> dict:
    """Run every pair of the schedule; the whole record."""
    refs = {"parent": parent, "change": change}
    sides = {side: {"ref": ref, "commit": _git("rev-parse", f"{ref}^{{commit}}"),
                    "src_tree": _git("rev-parse", f"{ref}:src")} for side, ref in refs.items()}
    checkouts = {side: workdir / side for side in refs}
    try:
        for side, path in checkouts.items():
            _git("worktree", "add", "--detach", str(path), sides[side]["commit"])
            sides[side]["src_lines"] = src_lines(path / "src")
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        runs = []
        for workload, s, order in schedule(pairs, seed):
            pair = {"workload": workload, "seed": s, "order": list(order)}
            for side in order:
                pair[side] = _run(checkouts[side], workload, s, seconds)
                print(f"{workload} seed {s} {side}: ops_per_s "
                      f"{pair[side]['metrics']['ops_per_s']:.4g}", file=sys.stderr)
            runs.append(pair)
    finally:
        for path in checkouts.values():
            if path.exists():
                _git("worktree", "remove", "--force", str(path))
        _git("worktree", "prune")
    machine = runs[0]["parent"]["machine"]
    for r in runs:
        for side in refs:
            r[side].pop("machine")
    return {"parent": sides["parent"], "change": sides["change"], "seconds": seconds,
            "machine": machine, "workloads": summarize(runs, metrics), "runs": runs}


def _pair_count(spec: str) -> tuple[str, int]:
    name, _, n = spec.partition("=")
    if name not in WORKLOADS or not n.removeprefix("-").isdecimal():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with WORKLOAD one of "
                                         f"{', '.join(WORKLOADS)}, got {spec!r}")
    return name, int(n)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git ref of the parent")
    p.add_argument("change", help="git ref of the change")
    p.add_argument("--out", required=True, type=Path, help="the record to write")
    p.add_argument("--pairs", type=_pair_count, action="append", default=[],
                   metavar="WORKLOAD=N",
                   help=f"pairs of one workload, N >= 1; only the workloads named run "
                        f"(default: each workload, {DEFAULT_PAIRS} pairs)")
    p.add_argument("--seed", type=int, default=1, help="workload seed of the first pair")
    args = p.parse_args(argv)
    pairs = dict(args.pairs) or dict.fromkeys(WORKLOADS, DEFAULT_PAIRS)
    for name, n in pairs.items():
        if n < 1:
            p.error(f"--pairs needs N >= 1, got {name}={n}")
    # unwind on SIGTERM, so the cleanup below and in ``bench`` runs; subprocess.run
    # kills a running child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
            record = bench(args.parent, args.change, pairs, args.seed, Path(tmp))
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(r[side]["correct"] for r in record["runs"] for side in ("parent", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The toepsharp benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop in one
process and thread: the next op starts when the last returns (cli-cold
runs one child interpreter at a time).  A run measures until ``--seconds``
have passed and at least ``min_ops`` ops are done, stopping only at a
whole round of the workload, then checks every result.  End-to-end
times are scaled to a reference CPU speed measured between ops (see
``Speed``), because co-tenants of a shared machine change its speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced pass, replays its ops with a span around every call into the
library's public functions, and prints the per-layer metrics derived
from those spans.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full run record
(machine, versions, digest, failures, spans) goes under ``.bench_out/``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE_TIMEOUT_S = 120.0
MAX_TIMED_S = 60.0      # hard stop of a timed pass: a traced run makes two, within 180 s
SMALL_BUDGET = 64       # oracle budget of the derived screen/refine split
REF_LOOP = 20000        # iterations of one reference pass
REF_S = 1.7e-3          # typical time of one reference pass on the machine the bounds
                        # were tuned on (2-core Xeon VM, Python 3.11.7); it only sets the scale
REF_EVERY_S = 0.05      # one reference pass per this much time of a timed pass
REF_WINDOW = 21         # passes behind each speed estimate: about a second around it


@dataclass(frozen=True)
class Sizes:
    min_ops: int = 100          # p90 then has 10 samples beyond it; the digest
                                # and the exact counts cover this many leading ops
    repeats: int = 7            # fresh-process set-ups and probes behind each median
    trace_max_ops: int = 10000  # ops replayed with spans (bounds memory)


# ---------------------------------------------------------------------------
# the machine's speed

def ref_pass() -> float:
    """Seconds for a fixed pure-Python loop with a tiny working set."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class Speed:
    """How fast the CPU ran at each moment, relative to the reference speed.

    On a shared machine other tenants slow the CPU by up to a third for
    seconds at a time, and op times move with them.  Reference passes run
    between ops, one per REF_EVERY_S of elapsed time; after an op longer
    than that the missed passes are made up.  The factor of a moment is
    REF_S over the median of the REF_WINDOW passes centred on it (about a
    second), so wall time times the factor is the time the same work
    takes at the reference speed.
    """

    def __init__(self):
        self.at = array("d")        # when each pass ended
        self.took = array("d")      # how long it took

    def sample(self, n: int) -> None:
        for _ in range(n):
            self.took.append(ref_pass())
            self.at.append(time.perf_counter())

    def tick(self) -> float:
        """Make the passes due since the last one; called between ops.  Returns their seconds."""
        due = int((time.perf_counter() - self.at[-1]) / REF_EVERY_S) if self.at else REF_WINDOW
        n = min(due, REF_WINDOW)
        if n <= 0:
            return 0.0
        self.sample(n)
        return sum(self.took[-n:])

    def factors(self, starts) -> list[float]:
        """The factor of each op, from the passes centred on the first one after its start."""
        half = REF_WINDOW // 2
        took = self.took
        centred = [REF_S / statistics.median(took[max(0, j - half):j + half + 1])
                   for j in range(len(took))]
        last = len(centred) - 1
        return [centred[min(bisect.bisect(self.at, t), last)] for t in starts]

    def measure(self, fn) -> tuple[float, float]:
        """``fn()`` seconds, raw and scaled by the passes made just before and after it."""
        first = len(self.took)
        self.sample(REF_WINDOW - REF_WINDOW // 2)
        seconds = fn()
        self.sample(REF_WINDOW // 2)
        return seconds, seconds * REF_S / statistics.median(self.took[first:])


# ---------------------------------------------------------------------------
# the timed loop

@dataclass
class Pass:
    ops: int
    wall: float
    times: array                # wall seconds per op
    scale: array                # speed factor of each op
    mismatches: list            # ops whose result differed from an earlier run of the same input
    ref_s: float                # time of the reference passes inside ``wall``


def timed_pass(wl, first: list, seconds: float, sizes: Sizes, speed: Speed,
               n_ops: int | None = None, tracer=None) -> Pass:
    """Run ops back to back, for ``seconds`` (see the module doc) or exactly ``n_ops``.

    ``first[i]`` keeps the first result for input ``i``; a later op on the
    same input must return an equal result.  Reference passes of ``speed``
    run between ops, never inside an op's time, and give each op its
    speed factor.
    """
    from workloads import OpError

    inputs, op = wl.inputs, wl.op
    pool = len(inputs)
    times, starts = array("d"), array("d")
    mismatches = []
    clock = time.perf_counter
    start = now = clock()
    deadline, hard_stop = start + seconds, start + MAX_TIMED_S
    ref_s = 0.0
    k = 0
    while True:
        if n_ops is not None:
            if k >= n_ops:
                break
        elif (k >= sizes.min_ops and k % wl.round_len == 0 and now >= deadline) or now >= hard_stop:
            break
        i = k % pool
        ref_s += speed.tick()
        if tracer is not None:
            tracer.op_id = k
            sid = tracer.begin("bench.op")
        t0 = clock()
        starts.append(t0)
        try:
            r = op(inputs[i])
        except Exception as exc:  # a failed op is counted, not fatal
            r = OpError(f"{type(exc).__name__}: {exc}")
        now = clock()
        times.append(now - t0)
        if first[i] is None:
            first[i] = r
        elif r != first[i]:
            mismatches.append(k)
        if tracer is not None:
            tracer.end(sid)
        k += 1
    wall = clock() - start
    speed.sample(REF_WINDOW // 2)       # the window of the last ops
    scale = array("d", speed.factors(starts))
    return Pass(k, wall, times, scale, mismatches, ref_s)


def failures(wl, first: list, n_ops: int, mismatches) -> dict[int, str]:
    """Failed op index -> reason, over the first ``n_ops`` ops."""
    pool = len(wl.inputs)
    bad = {}
    for i, r in enumerate(first):
        if r is not None:
            why = wl.check(wl.inputs[i], r)
            if why is not None:
                bad[i] = why
    failed = {k: bad[k % pool] for k in range(n_ops) if k % pool in bad}
    for k in mismatches:
        failed.setdefault(k, "result differs from an earlier op on the same input")
    return failed


def digest(wl, first: list, n: int) -> str:
    h = hashlib.sha256()
    pool = len(wl.inputs)
    for k in range(n):
        h.update(wl.canon(wl.inputs[k % pool], first[k % pool]).encode() + b"\n")
    return h.hexdigest()


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else (xs[0] if xs else 0.0)


def median(xs) -> float:
    return statistics.median(xs) if len(xs) else 0.0


# ---------------------------------------------------------------------------
# fresh-process probes

def probe(args: list[str], env: dict) -> float:
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe {args} exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def python_start_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                   timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# run record

def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    info["caches"] = caches
    return info


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

# per-layer metrics that are not read off spans or reports
PER_LAYER_LABELS = {"oracle.screen_ms": "derived", "oracle.refine_ms": "derived",
                    "oracle.objective_rows": "computed"}

MODULES = ("oracle", "bounds", "extremal", "catalog", "coeffs", "schwarz", "cli", "bench")


def span_stats(tracer, n_ops: int, count_ops: int):
    """Per span name: durations (s), calls in the leading ops, self time (s), time per op (s)."""
    durations: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    by_op: dict[str, array] = {}
    self_ns = tracer.self_ns()
    for sid, name in enumerate(tracer.names):
        d = (tracer.ends[sid] - tracer.starts[sid]) * 1e-9
        op = tracer.op_ids[sid]
        durations.setdefault(name, []).append(d)
        if op < count_ops:
            calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_ns[sid] * 1e-9
        by_op.setdefault(name, array("d", bytes(8 * n_ops)))[op] += d
    return durations, calls, own, by_op


def layer_metrics(wl, first, untraced: Pass, traced: Pass, tracer, sizes: Sizes,
                  split, cli_probes) -> dict[str, tuple[float, str]]:
    from workloads import SUBCOMMANDS, CliCold

    n = traced.ops
    count_ops = min(sizes.min_ops, n)
    durations, calls, own, by_op = span_stats(tracer, n, count_ops)
    none = array("d", bytes(8 * n))
    m: dict[str, tuple[float, str]] = {}

    def fn(name: str, unit: str, scale: float):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.{unit}_p50"] = (median(durations.get(name, [])) * scale, unit)

    for name in ("oracle.maximize", "oracle.lemma1_scan"):
        fn(name, "ms", 1e3)
        m[f"{name}.self_ms"] = (own.get(name, 0.0) * 1e3 / n, "ms")

    # screen/refine split, derived from outside: a full-budget op minus the
    # same op at the small budget (same 69 compass starts) is the screen; the
    # small-budget op minus its bound span is the refinement
    screen = refine = 0.0
    if split:
        full, small = zip(*split)
        bound_s = by_op.get(wl.bound_span, none)[:len(split)]
        screen = (statistics.fmean(full) - statistics.fmean(small)) * 1e3
        refine = (statistics.fmean(small) - statistics.fmean(bound_s)) * 1e3
    m["oracle.screen_ms"] = (screen, "ms")
    m["oracle.refine_ms"] = (refine, "ms")

    # exact counts from the reports of the leading ops
    pool = len(wl.inputs)
    reports = [first[k % pool] for k in range(count_ops)]
    iters = rows = 0
    for r in reports:
        if hasattr(r, "refinement_iters"):
            s = 5 + min(64, r.samples_used)
            iters += r.refinement_iters
            rows += r.samples_used + s * (1 + 12 * r.refinement_iters)
    maximize_s = sum(by_op.get("oracle.maximize", none)[:count_ops])
    m["oracle.refine_iters"] = (iters, "count")
    m["oracle.objective_rows"] = (rows, "count")
    m["oracle.rows_per_s"] = (rows / maximize_s if maximize_s else 0.0, "1/s")

    verdicts = [wl.verdict(wl.inputs[k % pool], first[k % pool]) for k in range(n)]
    verdicts = [v for v in verdicts if v is not None]
    sharp = sum(v.value == "SharpConfirmed" for v in verdicts)
    m["oracle.sharp_ratio"] = (sharp / len(verdicts) if verdicts else 0.0, "ratio")

    fn("bounds.theorem_bound", "us", 1e6)
    fn("bounds.omega_region", "us", 1e6)
    fn("extremal.attainment", "us", 1e6)
    fn("catalog.phi_coeffs", "us", 1e6)
    m["coeffs.toeplitz.calls"] = (calls.get("coeffs.toeplitz", 0), "count")
    m["schwarz.calls"] = (sum(c for name, c in calls.items() if name.startswith("schwarz.")),
                          "count")
    for mod in MODULES:
        mod_s = sum(v for name, v in own.items() if name.split(".", 1)[0] == mod)
        m[f"{mod}.self_ms"] = (mod_s * 1e3 / n, "ms")

    for key in ("python_start_ms", "numpy_import_ms", "toepsharp_import_ms"):
        m[f"cli.{key}"] = (cli_probes[key], "ms")
    cold = {s: [] for s in SUBCOMMANDS}
    main = {s: [] for s in SUBCOMMANDS}
    if isinstance(wl, CliCold):
        for k in range(untraced.ops):
            cold[wl.inputs[k % pool][0]].append(untraced.times[k])
        main = wl.main_seconds
    for s in SUBCOMMANDS:
        m[f"cli.cold_ms.{s}"] = (median(cold[s]) * 1e3, "ms")
    for s in SUBCOMMANDS:
        m[f"cli.main_ms.{s}"] = (median(main[s]) * 1e3, "ms")

    # traced minus untraced time of the same ops, both at the reference
    # speed; and traced wall time that neither a span nor a reference pass covers
    base = sum(t * c for t, c in zip(untraced.times[:n], untraced.scale))
    with_spans = sum(t * c for t, c in zip(traced.times, traced.scale))
    m["trace.overhead_pct"] = ((with_spans - base) / base * 100, "%")
    roots = sum(durations.get("bench.op", []))
    m["trace.unaccounted_pct"] = ((traced.wall - traced.ref_s - roots) / traced.wall * 100, "%")
    return m


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """One benchmark run; returns the run record (its ``result`` is the printed JSON)."""
    import workloads
    from spans import Tracer

    env = workloads.cli_env()
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed)
    wl.warmup()
    parent_setup_s = time.perf_counter() - t0

    speed = Speed()
    first = [None] * len(wl.inputs)
    untraced = timed_pass(wl, first, seconds, sizes, speed)
    if workload == "cli-cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mismatches = list(untraced.mismatches)

    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "commit": git_commit(), "machine": machine(), "sizes": asdict(sizes),
                    "parent_setup_s": parent_setup_s, "ops": untraced.ops,
                    "timed_wall_s": untraced.wall, "reference_passes_s": untraced.ref_s}
    if trace:
        n = min(untraced.ops, sizes.trace_max_ops)
        tracer = Tracer()
        from toepsharp import bounds, catalog, cli, coeffs, extremal, oracle, schwarz
        with tracer.installed((oracle, bounds, extremal, catalog, coeffs, schwarz, cli),
                              extra=((workloads, "run_cli", "cli.process"),)):
            traced = timed_pass(wl, first, seconds, sizes, speed, n_ops=n, tracer=tracer)
        mismatches += traced.mismatches
        # the derived screen/refine split: the whole rounds that cover the
        # leading ops, each op timed at the full and at the small budget back
        # to back, so that both see the same machine speed; the order
        # alternates, so that neither gains from the other's warm caches
        split = []
        if hasattr(wl, "op_at_budget"):
            rounds = -(-sizes.min_ops // wl.round_len)
            for k in range(min(n, rounds * wl.round_len)):
                x = wl.inputs[k % len(wl.inputs)]
                runs = {"full": lambda: wl.op(x), "small": lambda: wl.op_at_budget(x, SMALL_BUDGET)}
                took = {}
                for key in (("full", "small") if k % 2 else ("small", "full")):
                    t1 = time.perf_counter()
                    runs[key]()
                    took[key] = time.perf_counter() - t1
                split.append((took["full"], took["small"]))

        def probe_ms(measure) -> float:
            return median([measure() for _ in range(sizes.repeats)]) * 1e3

        cli_probes = {
            "python_start_ms": probe_ms(lambda: python_start_s(env)),
            "numpy_import_ms": probe_ms(lambda: probe(["import", "numpy"], env)),
            "toepsharp_import_ms": probe_ms(lambda: probe(["import", "toepsharp.cli"], env)),
        }

    setups_raw, setups = [], []
    for _ in range(sizes.repeats):
        raw_s, scaled_s = speed.measure(lambda: probe(["setup", workload, str(seed)], env))
        setups_raw.append(raw_s)
        setups.append(scaled_s)
    failed = failures(wl, first, untraced.ops, mismatches)
    # end-to-end times are at the reference speed (see Speed)
    times = [t * c for t, c in zip(untraced.times, untraced.scale)]
    e2e = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (untraced.ops / sum(times), "1/s"),
        "op_ms_p50": (median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "ok_ratio": ((untraced.ops - len(failed)) / untraced.ops, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = untraced.times
    record.update({"setup_samples_s": setups, "op_time_samples": len(times),
                   "speed_factor": {"p10": statistics.quantiles(untraced.scale, n=10)[0],
                                    "p50": median(untraced.scale),
                                    "p90": p90(untraced.scale)},
                   "wall_clock": {"setup_s": median(setups_raw),
                                  "ops_per_s": untraced.ops / untraced.wall,
                                  "op_ms_p50": median(raw) * 1e3, "op_ms_p90": p90(raw) * 1e3},
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "failed": len(failed),
                   "failures": [[k, why] for k, why in sorted(failed.items())[:20]],
                   "digest_ops": min(sizes.min_ops, untraced.ops),
                   "digest": digest(wl, first, min(sizes.min_ops, untraced.ops))})
    metrics = e2e
    if trace:
        metrics = layer_metrics(wl, first, untraced, traced, tracer, sizes, split, cli_probes)
        record.update({"traced_ops": traced.ops, "traced_wall_s": traced.wall,
                       "traced_reference_passes_s": traced.ref_s,
                       "per_layer_labels": PER_LAYER_LABELS,
                       "per_layer": {k: v for k, (v, _) in metrics.items()},
                       "spans": len(tracer.names)})
        record["_tracer"] = tracer
    record["result"] = {
        "correct": not failed, "attempted": untraced.ops, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("oracle-sweep", "lemma-scan", "exact-bounds", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "toepsharp" / "__init__.py").is_file():
        print(f"error: no toepsharp sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # one CPU for this process and every child, so the reference passes run
    # on the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # byte-compile once, so set-up and child start-up never pay for compiling
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    sys.path.insert(0, str(HERE))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("_tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = record["result"]
    for k, why in record["failures"]:
        print(f"FAILED op {k}: {why}")
    print(f"{args.workload}: {record['ops']} ops, digest {record['digest'][:16]} "
          f"(first {record['digest_ops']} ops), record {OUT.name}/{stem}.json")
    for name, v in result["metrics"].items():
        print(f"  {name:32} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: a tiny run of every workload, the names it
prints against BENCHMARK.json, and negative controls for every checker.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer
from toepsharp import oracle

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = run.Sizes(min_ops=3, repeats=1, trace_max_ops=3)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_workload_names_match_declaration():
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_records():
    return {name: run.run(name, seed=7, seconds=0, trace=True, sizes=TINY)
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_is_correct_and_prints_declared_metrics(tiny_records, name):
    record = tiny_records[name]
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert set(record["end_to_end"]) == set(_declared("end_to_end"))
    assert record["traced_ops"] == 3


def test_untraced_run_prints_declared_end_to_end_metrics():
    result = run.run("exact-bounds", seed=7, seconds=0, trace=False, sizes=TINY)["result"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digest_repeats_for_the_same_seed(tiny_records):
    again = run.run("lemma-scan", seed=7, seconds=0, trace=False, sizes=TINY)
    assert again["digest"] == tiny_records["lemma-scan"]["digest"]


def test_speed_factor_is_centred_on_the_op():
    speed = run.Speed()
    # passes end at t = 0..40; the machine halves its speed from t = 20 on
    speed.at = array("d", range(41))
    speed.took = array("d", [run.REF_S] * 20 + [2 * run.REF_S] * 21)
    fast, edge, slow = speed.factors([5.5, 19.5, 34.5])
    assert (fast, slow) == (1.0, 0.5)
    assert edge == 0.5      # passes 10..30 centred on pass 20: eleven slow, ten fast


def test_span_self_times_partition_the_root():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: time.sleep(0.002))

    def outer():
        inner()
        inner()

    tracer.wrap("m.outer", outer)()
    own = tracer.self_ns()
    root = tracer.ends[0] - tracer.starts[0]
    assert tracer.parents.tolist() == [-1, 0, 0]
    assert sum(own) == root
    assert own[0] < root - 2 * 2_000_000 + 1


# ---------------------------------------------------------------------------
# negative controls: a wrong verdict, value or exit code must count as failed

def _counted(wl, i, bad_result) -> int:
    first = [None] * len(wl.inputs)
    first[i] = bad_result
    return len(run.failures(wl, first, len(wl.inputs), []))


def _ok(wl, i):
    r = wl.op(wl.inputs[i])
    assert wl.check(wl.inputs[i], r) is None
    return r


def test_oracle_sweep_checker_counts_wrong_verdicts():
    wl = workloads.OracleSweep(1)
    r = _ok(wl, 0)
    assert _counted(wl, 0, dataclasses.replace(r, verdict=oracle.Verdict.VALID_NOT_ATTAINED)) == 1
    assert _counted(wl, 0, dataclasses.replace(r, verdict=oracle.Verdict.VIOLATION)) == 1
    assert _counted(wl, 0, workloads.OpError("ValueError: boom")) == 1


def test_lemma_scan_checker_counts_wrong_values_and_verdicts():
    wl = workloads.LemmaScan(1)
    inside = next(i for i, x in enumerate(wl.inputs) if workloads.in_omega(x[0], x[1]))
    outside = next(i for i, x in enumerate(wl.inputs) if not workloads.in_omega(x[0], x[1]))
    emp, bound, verdict = _ok(wl, inside)
    mu = wl.inputs[inside][1]
    assert _counted(wl, inside, (emp, bound, oracle.Verdict.VIOLATION)) == 1
    assert _counted(wl, inside, (emp, None, verdict)) == 1
    assert _counted(wl, inside, (abs(mu) - 1e-6, bound, verdict)) == 1
    emp, bound, verdict = _ok(wl, outside)
    assert _counted(wl, outside, (emp, 1.0, verdict)) == 1
    assert _counted(wl, outside, (emp, bound, oracle.Verdict.SHARP_CONFIRMED)) == 1


def test_exact_bounds_checker_counts_wrong_values():
    wl = workloads.ExactBounds(1)
    fixture = next(i for i, c in enumerate(wl.inputs)
                   if c.source[:1] == ("fixture",) and c.source[1] == "halfplane")
    curve = next(i for i, c in enumerate(wl.inputs) if c.source[:1] == ("curve",))
    applicable = next(i for i, c in enumerate(wl.inputs)
                      if c.expected is None and wl.op(c)[2])
    for i in (fixture, curve, applicable):
        phi, bound, app, att = _ok(wl, i)
        assert _counted(wl, i, (phi, bound + 1, app, att)) == 1
        assert _counted(wl, i, (phi, float(bound), app, att)) == 1
        assert _counted(wl, i, (phi, bound, app, att * (1 + 1e-9))) == 1
    # a wrong published value, not a wrong result
    c = wl.inputs[fixture]
    r = wl.op(c)
    wl.inputs[fixture] = dataclasses.replace(c, expected=c.expected + 1)
    assert _counted(wl, fixture, r) == 1


def test_cli_cold_checker_counts_wrong_exit_codes_and_output():
    wl = workloads.CliCold(1)
    i = 0                                  # a "bound" op: no oracle, quick
    code, out = _ok(wl, i)
    assert _counted(wl, i, (code + 1, out)) == 1
    assert _counted(wl, i, (code, out + b" ")) == 1
    assert _counted(wl, i, (code, b"")) == 1


def test_mismatch_between_runs_of_one_input_counts():
    wl = workloads.ExactBounds(1)
    first = [None] * len(wl.inputs)
    first[0] = wl.op(wl.inputs[0])
    assert set(run.failures(wl, first, 1, [len(wl.inputs)])) == {len(wl.inputs)}

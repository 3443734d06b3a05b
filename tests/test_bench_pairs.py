"""scripts/bench_pairs.py: the schedule and the summary of paired runs, on synthetic records,
the ``src/`` line counter, on a temporary tree, and the cleanup after SIGTERM, on a real run.

Its usage errors for bad pair counts are in ``test_cli.TestScriptArguments``.
"""

import copy
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"ops_per_s": {"better": "higher", "bound": 0.2},
        "op_ms_p50": {"better": "lower", "bound": 0.2}}


def _side(ops, p50, digest="d0"):
    return {"metrics": {"ops_per_s": ops, "op_ms_p50": p50, "ok_ratio": 1.0}, "digest": digest}


def _pair(workload, seed, parent, change):
    return {"workload": workload, "seed": seed, "parent": parent, "change": change}


# five oracle-sweep pairs: the change wins ops_per_s four times and ties
# once, wins op_ms_p50 three times and loses twice; every digest differs.
# two lemma-scan pairs with equal digests.
RUNS = [
    _pair("oracle-sweep", 7, _side(10.0, 50.0, "p7"), _side(12.0, 45.0, "c7")),
    _pair("oracle-sweep", 8, _side(11.0, 52.0, "p8"), _side(13.0, 55.0, "c8")),
    _pair("oracle-sweep", 9, _side(12.0, 49.0, "p9"), _side(12.0, 44.0, "c9")),
    _pair("oracle-sweep", 10, _side(13.0, 51.0, "p10"), _side(15.0, 53.0, "c10")),
    _pair("oracle-sweep", 11, _side(14.0, 48.0, "p11"), _side(16.0, 40.0, "c11")),
    _pair("lemma-scan", 7, _side(100.0, 5.0, "x"), _side(90.0, 5.0, "x")),
    _pair("lemma-scan", 8, _side(104.0, 6.0, "y"), _side(96.0, 6.0, "y")),
]


class TestSummarize:
    def test_pairs_seeds_and_workload_order(self):
        s = bench_pairs.summarize(RUNS, SPEC)
        assert list(s) == ["oracle-sweep", "lemma-scan"]
        assert s["oracle-sweep"]["pairs"] == 5
        assert s["oracle-sweep"]["seeds"] == [7, 8, 9, 10, 11]
        assert s["lemma-scan"]["seeds"] == [7, 8]

    def test_medians_and_quartiles(self):
        ops = bench_pairs.summarize(RUNS, SPEC)["oracle-sweep"]["metrics"]["ops_per_s"]
        # inclusive quartiles of 10..14 and of 12, 12, 13, 15, 16
        assert ops["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
        assert ops["change"] == {"q1": 12.0, "median": 13.0, "q3": 15.0}

    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self):
        m = bench_pairs.summarize(RUNS, SPEC)["oracle-sweep"]["metrics"]
        assert (m["ops_per_s"]["wins"], m["ops_per_s"]["losses"], m["ops_per_s"]["ties"]) == (4, 0, 1)
        assert (m["op_ms_p50"]["wins"], m["op_ms_p50"]["losses"], m["op_ms_p50"]["ties"]) == (3, 2, 0)
        lemma = bench_pairs.summarize(RUNS, SPEC)["lemma-scan"]["metrics"]
        assert (lemma["ops_per_s"]["wins"], lemma["ops_per_s"]["losses"]) == (0, 2)
        assert lemma["op_ms_p50"]["ties"] == 2

    def test_only_the_named_metrics_are_summarized(self):
        s = bench_pairs.summarize(RUNS, SPEC)
        assert all(set(w["metrics"]) == set(SPEC) for w in s.values())
        assert s["oracle-sweep"]["metrics"]["op_ms_p50"]["better"] == "lower"

    def test_digest_agreement_per_workload(self):
        s = bench_pairs.summarize(RUNS, SPEC)
        assert s["oracle-sweep"]["digests_equal"] is False
        assert s["lemma-scan"]["digests_equal"] is True

    def test_one_pair_has_collapsed_quartiles(self):
        s = bench_pairs.summarize(RUNS[:1], SPEC)["oracle-sweep"]["metrics"]["ops_per_s"]
        assert s["parent"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}
        assert s["wins"] == 1

    def test_pure(self):
        before = copy.deepcopy(RUNS)
        first = bench_pairs.summarize(RUNS, SPEC)
        assert RUNS == before
        assert bench_pairs.summarize(RUNS, SPEC) == first


def _spread_runs(parent, change):
    """Pairs of one workload whose ops_per_s and op_ms_p50 both read the given values."""
    return [_pair("lemma-scan", k, _side(p, p), _side(c, c))
            for k, (p, c) in enumerate(zip(parent, change))]


NARROW = [100.0, 101.0, 102.0, 103.0, 104.0]    # interquartile spread 2, median 102
WIDE = [50.0, 70.0, 100.0, 130.0, 150.0]        # interquartile spread 60, median 100


class TestUnresolved:
    """A metric is unresolved when either side's interquartile spread exceeds its bound
    times the parent's median, unless every change run reads better than every parent run."""

    def _metrics(self, parent, change, spec=SPEC):
        return bench_pairs.summarize(_spread_runs(parent, change), spec)["lemma-scan"]["metrics"]

    def test_the_bound_is_recorded(self):
        m = self._metrics(NARROW, NARROW)
        assert m["ops_per_s"]["bound"] == 0.2 and m["op_ms_p50"]["bound"] == 0.2

    def test_narrow_runs_on_both_sides_are_resolved(self):
        m = self._metrics(NARROW, [99.0, 100.0, 101.0, 102.0, 103.0])
        assert not m["ops_per_s"]["unresolved"] and not m["op_ms_p50"]["unresolved"]

    def test_a_wide_parent_is_unresolved(self):
        m = self._metrics(WIDE, NARROW)
        assert m["ops_per_s"]["unresolved"] and m["op_ms_p50"]["unresolved"]

    def test_a_wide_change_is_unresolved(self):
        m = self._metrics(NARROW, WIDE)
        assert m["ops_per_s"]["unresolved"] and m["op_ms_p50"]["unresolved"]

    def test_wide_runs_that_separate_in_the_better_direction_are_resolved(self):
        # every change run above every parent run: better for ops_per_s only
        m = self._metrics([10.0, 20.0, 30.0, 40.0, 50.0], [60.0, 80.0, 100.0, 120.0, 140.0])
        assert not m["ops_per_s"]["unresolved"]
        assert m["op_ms_p50"]["unresolved"]

    def test_a_spread_equal_to_the_bound_is_resolved(self):
        # interquartile spread 25 = 0.25 x the parent's median 100, on both sides
        parent, change = [80.0, 90.0, 100.0, 115.0, 120.0], [85.0, 90.0, 95.0, 115.0, 125.0]
        m = self._metrics(parent, change, {"ops_per_s": {"better": "higher", "bound": 0.25}})
        assert m["ops_per_s"]["parent"]["q3"] - m["ops_per_s"]["parent"]["q1"] == 25.0
        assert not m["ops_per_s"]["unresolved"]
        m = self._metrics(parent, change, {"ops_per_s": {"better": "higher", "bound": 0.24}})
        assert m["ops_per_s"]["unresolved"]

    def test_unresolved_is_reported_for_every_metric(self):
        s = bench_pairs.summarize(RUNS, SPEC)
        assert all(isinstance(m["unresolved"], bool)
                   for w in s.values() for m in w["metrics"].values())


def test_src_lines_counts_the_newlines_of_python_files_only(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("a = 1\n\nb = 2\n")   # 3
    (tmp_path / "pkg" / "sub" / "m.py").write_text("x\ny")              # 1, as wc -l
    (tmp_path / "pkg" / "empty.py").write_text("")                      # 0
    (tmp_path / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "pkg" / "m.pyc").write_bytes(b"\n\n")
    assert bench_pairs.src_lines(tmp_path) == 4
    assert bench_pairs.src_lines(tmp_path / "pkg" / "sub") == 1
    assert bench_pairs.src_lines(tmp_path / "missing") == 0


def test_schedule_alternates_the_side_that_runs_first():
    assert bench_pairs.schedule({"oracle-sweep": 3, "cli-cold": 2}, 40) == [
        ("oracle-sweep", 40, ("parent", "change")),
        ("oracle-sweep", 41, ("change", "parent")),
        ("oracle-sweep", 42, ("parent", "change")),
        ("cli-cold", 40, ("parent", "change")),
        ("cli-cold", 41, ("change", "parent")),
    ]


@pytest.mark.parametrize("spec", ["nosuch=2", "oracle-sweep", "oracle-sweep=two",
                                  "oracle-sweep=--3", "oracle-sweep=\u00b2"])
def test_malformed_pairs_spec_is_a_usage_error(spec):
    done = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "HEAD", "--out", "unused.json",
                           "--pairs", spec], capture_output=True, text=True, timeout=60,
                          check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage:") and "expected WORKLOAD=N" in done.stderr


def _worktrees_under(path: Path) -> list[str]:
    listing = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=SCRIPT.parents[1],
                             capture_output=True, text=True, check=True).stdout
    return [line for line in listing.splitlines()
            if line.startswith("worktree ") and str(path) in line]


@pytest.mark.skipif(subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPT.parents[1],
                                   capture_output=True, check=False).returncode != 0,
                    reason="needs a git checkout with a commit")
def test_sigterm_removes_the_worktrees_and_the_temporary_directory(tmp_path):
    """Stopped by SIGTERM during the parent's run, the script exits non-zero and leaves
    no checkout behind.  It is stopped once the parent's run has byte-compiled its
    sources, so both ``git worktree add`` calls have finished."""
    tmp = (tmp_path / "tmp").resolve()
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp)}
    proc = subprocess.Popen([sys.executable, str(SCRIPT), "HEAD", "HEAD", "--out",
                             str(tmp_path / "out.json"), "--pairs", "cli-cold=1"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while not list(tmp.glob("bench_pairs_*/parent/src/toepsharp/__pycache__")):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "the parent's run never started"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) != 0
        assert list(tmp.glob("bench_pairs_*")) == []
        assert _worktrees_under(tmp) == []
        assert not (tmp_path / "out.json").exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
        for line in _worktrees_under(tmp):
            subprocess.run(["git", "worktree", "remove", "--force", "--force",
                            line.removeprefix("worktree ")], cwd=SCRIPT.parents[1], check=False)
        subprocess.run(["git", "worktree", "prune"], cwd=SCRIPT.parents[1], check=False)

"""Command-line surface: exit codes, formats, and serialization contracts."""

import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toepsharp
from toepsharp.bounds import theorem_bound
from toepsharp.catalog import COROLLARY_CURVES, PHI_NAMES, fixture_entries
from toepsharp.cli import MAX_BUDGET, MAX_SWEEP_ROWS, _dump_json, _parse_range, main
from toepsharp.coeffs import ClassKind, FunctionalKind, PhiSpec
from toepsharp.extremal import attainment, inverse_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_catalog_generator(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "starlike",
                           "--phi", "exp", "--functional", "t21-log-inv")
        assert code == 0
        assert "25/64" in out and "0.390625" in out
        assert "applicable: True" in out

    def test_json_keeps_rationals_exact(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "starlike",
                           "--phi", "exp", "--functional", "t21-log-inv",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["bound"] == {"numerator": 25, "denominator": 64}
        assert d["applicable"] is True
        assert d["functional"] == "t21-log-inv"

    def test_inapplicable_exits_3(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "starlike",
                           "--phi", "lemniscate", "--functional", "t22-inv")
        assert code == 3
        assert "applicable: False" in out
        # phi data (1, 3/2, 0) fails the Gamma2 hypothesis: |3/2 - 2| < 1
        code, out, _ = run(capsys, "bound", "--class", "starlike", "--b1", "1",
                           "--b2", "3/2", "--b3", "0", "--functional", "t21-log-inv")
        assert code == 3
        assert "[FAIL] |B2 - 2 B1^2| >= B1" in out
        assert "applicable: False" in out

    def test_undefined_sigma_mu_margin_is_minus_inf(self, capsys):
        # B1 = 0 fails "B1 > 0" with margin -inf; JSON has no number for it,
        # so the margin is the string "-inf" and the output stays JSON
        code, out, _ = run(capsys, "bound", "--class", "starlike",
                           "--phi", "lemniscate", "--functional", "t22-inv")
        assert code == 3
        assert "[FAIL] B1 > 0 ((sigma, mu) defined) (margin -inf)" in out
        code, out, _ = run(capsys, "bound", "--class", "convex", "--b1", "0", "--b2", "1",
                           "--b3", "0", "--functional", "t22-log-inv", "--format", "json")
        assert code == 3
        (hyp,) = json.loads(out, parse_constant=_refuse_constant)["hypotheses"][1:]
        assert hyp == {"name": "B1 > 0 ((sigma, mu) defined)", "satisfied": False,
                       "margin": "-inf"}

    def test_raw_coefficients(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "convex",
                           "--b1", "2", "--b2", "2", "--b3", "2",
                           "--functional", "t21-inv")
        assert code == 0
        assert out.startswith("bound: 2")

    def test_missing_phi_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "--class", "starlike",
                           "--functional", "t21-inv")
        assert code == 2
        assert "error" in err

    def test_conflicting_phi_exits_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--class", "starlike",
                         "--phi", "exp", "--b1", "1",
                         "--functional", "t21-inv")
        assert code == 2

    def test_out_of_range_parameter_exits_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--class", "starlike",
                         "--phi", "starlike-order", "--alpha", "2",
                         "--functional", "t21-inv")
        assert code == 2

    def test_run_record(self, capsys, tmp_path):
        path = tmp_path / "record.json"
        argv = ("bound", "--class", "starlike", "--phi", "halfplane",
                "--functional", "t22-inv", "--format", "json", "--out", str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        record = json.loads(path.read_text())
        assert record["report"] == json.loads(out)
        assert set(record) == {"timestamp", "command", "version", "python", "numpy",
                               "platform", "exit_code", "report"}
        assert record["command"] == " ".join(argv)
        assert record["python"] == platform.python_version()
        assert record["platform"] == sys.platform
        assert record["exit_code"] == 0

    def test_run_record_of_verify_names_numpy_and_the_exit_code(self, capsys, tmp_path):
        # the cardioid's t22-log-inv formula value is exceeded: exit 5; verify has loaded numpy
        path = tmp_path / "record.json"
        code, _, _ = run(capsys, "verify", "--class", "starlike", "--phi", "cardioid",
                         "--functional", "t22-log-inv", "--budget", "100", "--out", str(path))
        record = json.loads(path.read_text())
        assert code == record["exit_code"] == 5
        assert record["numpy"] == sys.modules["numpy"].__version__

    def test_json_bound_beyond_float_range_stays_exact(self, capsys):
        code, out, _ = run(capsys, "bound", "--class", "starlike", "--functional", "t21-inv",
                           "--b1", "1e100", "--b2", "1/3", "--b3", "0", "--format", "json")
        assert code == 0
        bound = json.loads(out)["bound"]
        want = theorem_bound(FunctionalKind.T21_INV, ClassKind.STARLIKE,
                             PhiSpec(F(10 ** 100), F(1, 3), F(0))).bound
        assert F(bound["numerator"], bound["denominator"]) == want
        assert want > 10 ** 400  # beyond floats: only the text form needs float()


class TestTable:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert "NO" not in out

    def test_csv_header_contract(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class,functional,expected,computed,attained,match"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_only_halfplane_has_eight_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--only", "halfplane",
                           "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 8

    def test_unknown_entry_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "--only", "nephroid")
        assert code == 2

    @pytest.mark.parametrize("only, rows", [((), 23), (("--only", "halfplane"), 8),
                                            (("--only", "nephroid"), 0)],
                             ids=["all", "halfplane", "nephroid"])
    def test_only_evaluates_just_the_rows_it_prints(self, capsys, monkeypatch, only, rows):
        from toepsharp import bounds, extremal

        calls = []
        for module, name in ((bounds, "theorem_bound"), (extremal, "attainment")):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        code, out, err = run(capsys, "table", "--format", "csv", *only)
        assert calls.count("theorem_bound") == calls.count("attainment") == rows
        if rows:
            assert (code, len(out.splitlines()), err) == (0, 1 + rows, "")
        else:  # an entry that does not exist: named, and nothing on stdout
            assert (code, out, err) == (2, "", "error: no catalog entry named 'nephroid'\n")

    def test_every_exact_row_is_attained_exactly(self):
        # the exact rows compare attained == expected, with no tolerance
        exact = 0
        for entry in fixture_entries():
            for functional, expected in entry.fixtures:
                if isinstance(expected, F):
                    att = attainment(functional, entry.class_kind, entry.phi)
                    assert att == expected, (entry.name, entry.class_kind, functional)
                    exact += 1
        assert exact >= 20

    def test_exact_rows_refuse_an_attained_value_off_by_one_part_in_1e20(
            self, capsys, monkeypatch):
        # far below _REL_TOL: only the float (parabolic) rows still match
        from toepsharp import extremal

        computed = extremal.attainment
        monkeypatch.setattr(extremal, "attainment",
                            lambda f, k, phi: computed(f, k, phi) * (1 + F(1, 10 ** 20)))
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 5
        rows = json.loads(out)["rows"]
        assert {r["name"] for r in rows if r["match"]} == {"parabolic"}
        assert all(not r["match"] for r in rows if isinstance(r["expected"], dict))

    def test_a_parabolic_attained_value_one_ulp_off_fails(self, capsys, monkeypatch):
        # attained must equal computed on every row, the float ones too: _REL_TOL
        # only spans computed and the published parabolic value
        from toepsharp import extremal

        computed = extremal.attainment
        monkeypatch.setattr(extremal, "attainment", lambda f, k, phi: (
            math.nextafter(computed(f, k, phi), math.inf) if isinstance(phi.b1, float)
            else computed(f, k, phi)))
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 5
        rows = json.loads(out)["rows"]
        assert {r["name"] for r in rows if not r["match"]} == {"parabolic"}

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == sum(1 for _ in rows)
        assert all(r["match"] for r in rows)
        exact = [r for r in rows if r["name"] == "halfplane"
                 and r["functional"] == "t22-inv" and r["class"] == "starlike"]
        assert exact[0]["expected"] == {"numerator": 221, "denominator": 1}


class TestVerify:
    def test_sharp_confirmed_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--class", "starlike",
                           "--phi", "halfplane", "--functional", "t22-inv",
                           "--seed", "1", "--budget", "5000")
        assert code == 0
        assert "SharpConfirmed" in out

    def test_byte_identical_json(self, capsys):
        argv = ("verify", "--class", "convex", "--phi", "halfplane",
                "--functional", "t21-log-inv", "--seed", "3",
                "--budget", "3000", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        d = json.loads(first)
        assert d["verdict"] == "SharpConfirmed"
        assert d["seed"] == 3

    def test_unproven_violation_exits_5(self, capsys):
        code, out, _ = run(capsys, "verify", "--class", "starlike",
                           "--phi", "cardioid", "--functional", "t22-log-inv",
                           "--seed", "1", "--budget", "5000")
        assert code == 5
        assert "unproven" in out

    @pytest.mark.parametrize("functional, b1, b2", [
        ("t22-inv", "10", "0"),       # bound 7.13e6
        ("t21-inv", "1", "1e154"),    # bound 2.5e307
    ])
    def test_large_sharp_bound_is_confirmed(self, capsys, functional, b1, b2):
        # the verdict tolerances scale with the bound, so float rounding
        # of a large empirical maximum is not a violation
        code, out, _ = run(capsys, "verify", "--class", "starlike", "--functional", functional,
                           "--b1", b1, "--b2", b2, "--b3", "0", "--budget", "2000")
        assert code == 0
        assert out.startswith("verdict: SharpConfirmed")

    def test_budget_one_is_enough_at_the_extremal(self, capsys):
        code, _, _ = run(capsys, "verify", "--class", "starlike",
                         "--phi", "exp", "--functional", "t21-inv",
                         "--budget", "1")
        assert code == 0


class TestSweep:
    def test_alpha_sweep_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "alpha",
                           "--range", "0:2/3:1/3", "--class", "starlike",
                           "--functional", "t21-inv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,bound,applicable,attained"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        got = [float(r[1]) for r in rows]
        want = [(1 - a) ** 2 * (36 * a * a - 60 * a + 29)
                for a in (0, 1 / 3, 2 / 3)]
        assert all(abs(g - w) < 1e-12 * max(1, w) for g, w in zip(got, want))
        assert all(r[2] == "true" for r in rows)
        # the curve is sharp everywhere on the printed interval
        assert all(abs(float(r[3]) - float(r[1])) < 1e-12 * max(1, float(r[1]))
                   for r in rows)

    def test_step_larger_than_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "beta",
                           "--range", "1/2:3/5:1", "--class", "starlike",
                           "--functional", "t21-log-inv")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_beta_one_recovers_halfplane(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "beta",
                           "--range", "1:1:1", "--class", "starlike",
                           "--functional", "t22-inv")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == 221.0

    def test_malformed_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--param", "alpha",
                         "--range", "0..1", "--class", "starlike",
                         "--functional", "t21-inv")
        assert code == 2

    @pytest.mark.parametrize("rng", ["0:1:0", "0:1:-1/2", "1:0:1/2"])
    def test_empty_or_backward_range_exits_2(self, capsys, rng):
        code, out, err = run(capsys, "sweep", "--param", "alpha", f"--range={rng}",
                             "--class", "starlike", "--functional", "t21-inv")
        assert (code, out) == (2, "")
        assert err == f"error: range needs step > 0 and hi >= lo, got {rng!r}\n"

    def test_invalid_row_prints_nothing(self, capsys):
        # alpha = 1 is outside the order family; the valid alpha = 0 row
        # before it must not reach stdout
        code, out, err = run(capsys, "sweep", "--param", "alpha",
                             "--range", "0:1:1", "--class", "starlike",
                             "--functional", "t21-inv")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_row_cap(self, capsys):
        assert len(_parse_range(f"0:{MAX_SWEEP_ROWS - 1}:1")) == MAX_SWEEP_ROWS
        code, out, err = run(capsys, "sweep", "--param", "alpha",
                             "--range", "0:1/2:1/100000", "--class", "starlike",
                             "--functional", "t21-inv")
        assert code == 2
        assert out == ""
        assert str(MAX_SWEEP_ROWS) in err

    def test_janowski_sweep_needs_fixed_partner(self, capsys):
        code, _, _ = run(capsys, "sweep", "--param", "janowski-a",
                         "--range", "1/2:1:1/4", "--class", "starlike",
                         "--functional", "t21-inv")
        assert code == 2

    def test_negative_range_start_needs_the_equals_form(self, capsys):
        # argparse reads a separate "-1:..." as an option, so README documents --range=-1:...
        argv = ("sweep", "--param", "janowski-b", "--class", "starlike",
                "--functional", "t21-inv", "--a", "1/2")
        code, out, _ = run(capsys, *argv, "--range=-1:-1/2:1/4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-1.0, -0.75, -0.5]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--range", "-1:-1/2:1/4"])
        assert exc.value.code == 2
        assert "argument --range: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("param, fixed, unused", [
        ("alpha", (), "--a=1/2"),
        ("alpha", (), "--b=-1/2"),
        ("beta", (), "--b=-1/2"),
        ("janowski-a", ("--b=-1/2",), "--a=1/2"),
        ("janowski-b", ("--a=1/2",), "--b=-1/2"),
    ])
    def test_flag_the_sweep_does_not_use_exits_2(self, capsys, param, fixed, unused):
        code, out, err = run(capsys, "sweep", "--param", param, "--range", "1/4:1/2:1/4",
                             "--class", "starlike", "--functional", "t21-inv",
                             *fixed, unused)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and unused[:3] in err


class TestExtremal:
    def test_halfplane_coefficients(self, capsys):
        code, out, _ = run(capsys, "extremal", "--class", "starlike",
                           "--phi", "halfplane", "--order", "4")
        assert code == 0
        assert "a2 = 2i" in out.replace("0+", "").replace("j", "i")
        assert "t21-log-inv = 3.25" in out

    def test_exp_functional_value(self, capsys):
        code, out, _ = run(capsys, "extremal", "--class", "starlike",
                           "--phi", "exp", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert abs(d["functionals"]["t21-log-inv"] - 25 / 64) < 1e-12
        assert len(d["a"]) == 4

    def test_inverse_coefficients_are_exact_values_rounded_once(self, capsys):
        # b4 of the convex cardioid extremal is exactly 0, and Gamma3 of the
        # starlike exp one is -i (-29/72): no residue of rounded a2..a4
        code, out, _ = run(capsys, "extremal", "--class", "convex", "--phi", "cardioid")
        assert code == 0
        assert "b2, b3, b4 = 0-0.5j, -0.166666666667+0j, 0+0j" in out.splitlines()
        code, out, _ = run(capsys, "extremal", "--class", "starlike", "--phi", "exp",
                           "--format", "json")
        d = json.loads(out)
        assert d["gamma"][2] == {"re": 0.0, "im": 29 / 72}
        want = inverse_coeffs(ClassKind.STARLIKE, PhiSpec(1, F(1, 2), F(1, 6)))
        assert [complex(v["re"], v["im"]) for v in d["b"] + d["gamma"]] == list(want)

    def test_trivial_generator(self, capsys):
        code, out, _ = run(capsys, "extremal", "--class", "convex",
                           "--b1", "0", "--b2", "0", "--b3", "0",
                           "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert all(v == 0 for v in d["functionals"].values())

    def test_low_order_prints_a_prefix_of_order_four(self, capsys):
        # the a-lines are cut to --order; b, Gamma and the functionals do not
        # depend on it
        argv = ("extremal", "--class", "convex", "--phi", "exp", "--order")
        four = run(capsys, *argv, "4")[1].splitlines()
        for n in (2, 3):
            code, out, _ = run(capsys, *argv, str(n))
            assert code == 0
            assert out.splitlines() == four[:n] + four[4:]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficients_past_the_float_range_exit_2(self, capsys, fmt):
        # a3 = B1^2 / 2 and a4 = B1^3 / 6 pass 1e308 at B1 = 1e200: no nan in the
        # text, and no bare NaN or Infinity (not JSON) in the JSON
        code, out, err = run(capsys, "extremal", "--class", "starlike", "--b1", "1e200",
                             "--b2", "0", "--b3", "0", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: input outside the floating-point range")

    def test_bad_order_exits_2(self, capsys):
        code, _, _ = run(capsys, "extremal", "--class", "starlike",
                         "--phi", "exp", "--order", "1")
        assert code == 2

    def test_order_at_the_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "extremal", "--class", "starlike",
                           "--phi", "exp", "--order", "4")
        assert code == 0
        assert sum(line.startswith("a") for line in out.splitlines()) == 4

    @pytest.mark.parametrize("order", [5, 10 ** 12])
    def test_order_above_the_cap_exits_2_before_the_extremal(self, capsys, monkeypatch,
                                                              order):
        # B1..B3 fix a2..a4 only, so a5 and beyond are refused, not computed
        from toepsharp import extremal

        def unreached(kind, phi, n):
            raise AssertionError(f"extremal_coeffs ran at n = {n}")

        monkeypatch.setattr(extremal, "extremal_coeffs", unreached)
        code, out, err = run(capsys, "extremal", "--class", "starlike",
                             "--phi", "exp", "--order", str(order))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --order") and "2..4" in err


_BOUND = ("bound", "--class", "starlike", "--functional", "t21-inv")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _child_env() -> dict:
    """The environment of a new interpreter that imports this toepsharp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(toepsharp.__file__).parents[1])
    return env


# argv for the fuzz: valid and invalid values of every flag, small exponents,
# --budget <= 50, --order up to 10**12 (refused outside 2..4) and
# ranges of a few dozen rows
_NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "2/3", "0.25", "x", "1/0", "", "nan"]),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-40, 40), st.integers(1, 12)),
    st.builds(lambda m, k: f"{m}e{k}", st.integers(-9, 9), st.integers(-30, 400)),
)
_RANGE_END = st.sampled_from(["0", "1/4", "1/2", "1", "-1", "2", "x"])


def _mostly(valid, invalid: str):
    """One of ``valid``, or ``invalid`` about one time in ten."""
    return st.sampled_from(list(valid) * (9 // len(valid) + 1) + [invalid])


_FLAG_VALUES = {
    "class": _mostly([k.value for k in ClassKind], "bogus"),
    "functional": _mostly([f.value for f in FunctionalKind], "t23"),
    "phi": _mostly(PHI_NAMES, "nephroid"),
    **{key: _NUMBER for key in ("alpha", "beta", "a", "b", "b1", "b2", "b3")},
    "format": _mostly(["text", "json", "csv", "markdown"], "xml"),
    "budget": st.one_of(st.integers(-1, 50).map(str), st.just("1.5")),
    "seed": st.one_of(st.integers(-2, 2 ** 40).map(str), st.just("s")),
    "order": st.one_of(st.integers(-1, 9), st.integers(-1, 10 ** 12)).map(str),
    "only": _mostly(PHI_NAMES, "nephroid"),
    "param": _mostly(["alpha", "beta", "janowski-a", "janowski-b"], "gamma"),
    "range": st.one_of(
        st.builds(lambda lo, hi, step: f"{lo}:{hi}:{step}", _RANGE_END, _RANGE_END,
                  st.sampled_from(["1/10", "1/4", "1", "0", "-1/4"])),
        st.just("0..1")),
}
_SELECTORS = ("class", "phi", "alpha", "beta", "a", "b", "b1", "b2", "b3", "format")
_FLAGS = {
    "bound": ("functional",) + _SELECTORS,
    "verify": ("functional", "budget", "seed") + _SELECTORS,
    "extremal": ("order",) + _SELECTORS,
    "table": ("only", "format"),
    "sweep": ("param", "range", "class", "functional", "a", "b"),
}
_REQUIRED = {"bound": ("class", "functional"), "verify": ("class", "functional"),
             "extremal": ("class",), "table": (),
             "sweep": ("param", "range", "class", "functional")}


@st.composite
def _argv(draw) -> list[str]:
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    flags = []
    if draw(st.integers(0, 9)):  # nine in ten get the required flags and a generator
        flags += _REQUIRED[sub]
        if sub in ("bound", "verify", "extremal"):
            flags += draw(st.sampled_from([("phi",), ("b1", "b2", "b3")]))
    flags += draw(st.lists(st.sampled_from(_FLAGS[sub]), max_size=4))
    if not draw(st.integers(0, 9)):  # one in ten gets a flag of any subcommand
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    # --key=value keeps argparse from reading "-1/2" as an option
    return [sub] + [f"--{key}={draw(_FLAG_VALUES[key])}" for key in flags]


def _refuse_constant(name: str):
    raise AssertionError(f"{name} is not JSON")


class TestErrorContract:
    """Bad input ends in ``error: ...`` on stderr, exit 2 and an empty stdout."""

    @pytest.mark.parametrize("argv", [
        ("bound", "--class", "starlike", "--phi", "exp", "--functional", "t21-inv"),
        ("verify", "--class", "starlike", "--phi", "exp", "--functional", "t21-inv",
         "--budget", "100"),
        ("extremal", "--class", "starlike", "--phi", "exp"),
    ])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not path.exists()

    def test_json_names_a_type_it_cannot_encode(self):
        # no report holds such a value; the encoder hook's last line says so if one did
        with pytest.raises(TypeError, match="^object is not JSON serializable$"):
            _dump_json(object())

    def test_table_out_writes_a_record(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run(capsys, "table", "--only", "exp", "--format", "json",
                           "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["report"] == json.loads(out)

    @pytest.mark.parametrize("argv", [
        ("bound", "--class", "starlike", "--phi", "exp", "--functional", "t22-log-inv"),
        ("table", "--only", "lune"),
        ("verify", "--class", "starlike", "--phi", "exp", "--functional", "t21-inv",
         "--budget", "100", "--seed", "2"),
        ("extremal", "--class", "convex", "--phi", "halfplane", "--order", "4"),
    ])
    def test_record_report_equals_json_stdout(self, capsys, tmp_path, argv):
        # the record holds the JSON report whatever --format prints
        code, out, _ = run(capsys, *argv, "--format", "json", "--out", str(tmp_path / "j"))
        assert code == 0
        assert json.loads((tmp_path / "j").read_text())["report"] == json.loads(out)
        code, text, _ = run(capsys, *argv, "--out", str(tmp_path / "t"))
        assert code == 0 and text != out
        assert json.loads((tmp_path / "t").read_text())["report"] == json.loads(out)

    @pytest.mark.parametrize("sub", [
        ("bound", "--functional", "t21-inv"),
        ("verify", "--functional", "t21-inv", "--budget", "10"),
        ("extremal",),
    ])
    @pytest.mark.parametrize("family", ["--alpha=1/2", "--beta=1/2", "--a=1/2", "--b=-1/2"])
    def test_family_flag_without_phi_exits_2(self, capsys, sub, family):
        # raw --b1/--b2/--b3 fix the generator; a family parameter next to
        # them would be ignored, so it is refused
        code, out, err = run(capsys, sub[0], "--class", "starlike", *sub[1:],
                             "--b1", "1", "--b2", "0", "--b3", "0", family)
        assert code == 2
        assert out == ""
        assert err == f"error: {family.split('=')[0]} needs --phi\n"

    @pytest.mark.parametrize("argv, named", [
        (_BOUND + ("--phi", "janowski", "--a", "1"), "missing b"),
        (_BOUND + ("--b1", "1e400", "--b2", "0", "--b3", "0"), "floating-point"),
        (_BOUND + ("--b1", "1e200", "--b2", "0", "--b3", "0"), "floating-point"),
        (("verify", "--class", "starlike", "--functional", "t21-inv", "--budget", "10",
          "--b1", "1e400", "--b2", "0", "--b3", "0"), "floating-point"),
        (("extremal", "--class", "convex", "--b1", "1e400", "--b2", "0", "--b3", "0"),
         "floating-point"),
    ])
    def test_bad_generator(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    def test_huge_exponent_is_refused_at_once(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_BOUND, "--b1", "1e99999999", "--b2", "0", "--b3", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument --b1: exponent" in err and "Traceback" not in err
        code, out, err = run(capsys, "sweep", "--param", "alpha",
                             "--range", "0:1e99999999:1", "--class", "starlike",
                             "--functional", "t21-inv")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exponent" in err

    @pytest.mark.parametrize("value", ["1e99999999", "1e4301"])
    def test_exponent_cap_ignores_the_interpreter_setting(self, value):
        # int_max_str_digits=0 lifts the interpreter's own limit; the cap holds
        done = subprocess.run([sys.executable, "-X", "int_max_str_digits=0", "-m",
                               "toepsharp.cli", *_BOUND, "--b1", value, "--b2", "0", "--b3", "0"],
                              env=_child_env(), capture_output=True, text=True, timeout=30,
                              check=False)
        assert done.returncode == 2 and done.stdout == ""
        assert f"exponent of '{value}' exceeds 4300" in done.stderr

    def test_tiny_exponent_still_parses(self, capsys):
        code, out, _ = run(capsys, *_BOUND, "--b1", "1e-400", "--b2", "0", "--b3", "0")
        assert code in (0, 3)
        assert out.startswith("bound: ")

    def test_verify_overflow_fails_before_the_search(self, capsys, monkeypatch):
        from toepsharp import oracle

        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(oracle, "_maximize_objective", search)
        code, out, err = run(capsys, "verify", "--class", "starlike", "--functional",
                             "t22-inv", "--b1", "1e60", "--b2", "0", "--b3", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "floating-point" in err

    _VERIFY = ("verify", "--class", "starlike", "--phi", "exp", "--functional", "t21-inv")

    @pytest.mark.parametrize("budget", [str(MAX_BUDGET + 1), "99999999999"])
    def test_budget_above_the_cap_fails_before_the_search(self, capsys, monkeypatch, budget):
        from toepsharp import oracle

        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(oracle, "_maximize_objective", search)
        code, out, err = run(capsys, *self._VERIFY, "--budget", budget)
        assert code == 2
        assert out == ""
        assert err == f"error: --budget needs N <= {MAX_BUDGET}, got {budget}\n"

    @pytest.mark.parametrize("flag, value, need", [("--budget", "0", "N >= 1"),
                                                   ("--budget", "-3", "N >= 1"),
                                                   ("--seed", "-1", "N >= 0")])
    def test_out_of_range_flag_fails_before_the_search(self, capsys, monkeypatch,
                                                       flag, value, need):
        from toepsharp import oracle

        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(oracle, "_maximize_objective", search)
        code, out, err = run(capsys, *self._VERIFY, flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} needs {need}, got {value}\n"

    def test_budget_at_the_cap_reaches_the_search(self, capsys, monkeypatch):
        from toepsharp import oracle

        budgets = []

        def search(obj, majorant, face, budget, seed):
            budgets.append(budget)
            return oracle.SchurParams(1j, 0j, 0j), 0.0, 0

        monkeypatch.setattr(oracle, "_maximize_objective", search)
        code, out, _ = run(capsys, *self._VERIFY, "--budget", str(MAX_BUDGET))
        assert budgets == [MAX_BUDGET] == [10 ** 7]
        assert code == 4 and "samples = 10000000" in out

    @pytest.mark.parametrize("argv", [
        _BOUND + ("--phi", "exp"),
        ("table",),
        ("extremal", "--class", "starlike", "--phi", "exp"),
        ("verify", "--class", "starlike", "--phi", "exp", "--functional", "t21-inv"),
    ])
    def test_tol_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "5"])
        assert exc.value.code == 2

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv())
    def test_any_argv_ends_in_a_documented_exit(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        formats = [a.split("=", 1)[1] for a in argv if a.startswith("--format=")]
        if code != 2 and formats and formats[-1] == "json":  # the last --format wins
            json.loads(out.getvalue(), parse_constant=_refuse_constant)

    @pytest.mark.parametrize("argv, header, code", [
        # about 600 KB of CSV, more than a pipe holds, so the write after
        # the reader has gone always fails
        (["-m", "toepsharp.cli", "sweep", "--param", "alpha", "--range", "0:2/3:1/10000",
          "--class", "starlike", "--functional", "t21-inv"],
         b"param,bound,applicable,attained\n", 0),
        # about 150 KB of CSV, likewise
        ([str(SCRIPTS / "sweep_corollaries.py"), "--points", "60"],
         b"label,functional,param,value,published,theorem,attained,applicable\n", 0),
        # the header is flushed before the first search, and the next line
        # waits for that search; the sweep is then cut short, which is no pass
        ([str(SCRIPTS / "verify_all.py"), "--seeds", "1"], b"class ", 1),
    ], ids=["cli", "sweep_corollaries", "verify_all"])
    def test_closed_stdout_ends_quietly(self, argv, header, code):
        with subprocess.Popen([sys.executable, *argv], env=_child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(header)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == code
        assert err == b""


class TestScriptArguments:
    """The scripts refuse counts they cannot run with, as argparse usage errors."""

    @pytest.mark.parametrize("script, argv", [
        ("sweep_corollaries.py", ["--points", "1"]),  # one point: no grid step
        ("sweep_corollaries.py", ["--points", "0"]),  # no rows, only the header
        ("verify_all.py", ["--seeds", "0"]),          # min() of no runs
        ("verify_all.py", ["--budget", "0"]),         # maximize refuses it
        # no pairs to summarize; refused before any checkout or run
        ("bench_pairs.py", ["--pairs", "oracle-sweep=0", "HEAD", "HEAD", "--out", "unused.json"]),
        ("bench_pairs.py", ["--pairs", "lemma-scan=-3", "HEAD", "HEAD", "--out", "unused.json"]),
        ("verify_all.py", ["--budget", "10000001"]),  # above cli.MAX_BUDGET: hours of search
    ])
    def test_bad_count_exits_2_with_usage(self, script, argv):
        done = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=False)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage:") and "Traceback" not in done.stderr
        assert f"{argv[0]} needs N >= " in done.stderr

    def test_corollary_grid_ends_at_the_interval_end(self):
        # at 7 points lo + (hi - lo) * 6/6 rounds past beta = 1, so the grid
        # must end at hi itself
        done = subprocess.run([sys.executable, str(SCRIPTS / "sweep_corollaries.py"),
                               "--points", "7"], env=_child_env(), capture_output=True,
                              text=True, timeout=120, check=False)
        assert done.returncode == 0 and done.stderr == ""
        header, *rows = csv.reader(io.StringIO(done.stdout))
        assert len(rows) == 7 * len(COROLLARY_CURVES)
        assert all(len(r) == len(header) == 8 for r in rows)  # S*[A,-1] is quoted
        assert [r[0] for r in rows[::7]] == [c.label for c in COROLLARY_CURVES]
        for k, c in enumerate(COROLLARY_CURVES):
            xs = [float(r[3]) for r in rows[7 * k:7 * k + 7]]
            assert (xs[0], xs[-1]) == (c.lo, c.hi), c.label


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this toepsharp."""
    return subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=120, check=False)


class TestImportHygiene:
    """Only the numerical oracle loads numpy; every other path stays exact."""

    def test_exact_subcommands_never_import_numpy(self):
        done = _fresh_python(
            "import contextlib, io, sys\n"
            "import toepsharp.cli as cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "for argv in (['bound', '--class', 'starlike', '--phi', 'exp',\n"
            "              '--functional', 't22-inv'],\n"
            "             ['table', '--format', 'json'],\n"
            "             ['sweep', '--param', 'beta', '--range', '1/4:1:1/4',\n"
            "              '--class', 'convex', '--functional', 't21-log-inv'],\n"
            "             ['extremal', '--class', 'starlike', '--phi', 'halfplane']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv[0]\n")
        assert done.returncode == 0, done.stderr

    def test_exact_subcommands_load_only_what_they_use(self, tmp_path):
        """A text report loads none of numpy, dataclasses (and the inspect it
        loads), json and datetime; --format json loads json, --out datetime.
        Modules loaded before toepsharp (by a site hook, say) do not count."""
        done = _fresh_python(
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import toepsharp.cli as cli\n"
            "def added(*argv):\n"
            "    if argv:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.main(list(argv)) == 0, argv\n"
            "    return ({'numpy', 'dataclasses', 'inspect', 'json', 'datetime'}\n"
            "            & (set(sys.modules) - before))\n"
            "bound = ('bound', '--class', 'starlike', '--phi', 'exp', '--functional', 't22-inv')\n"
            "assert added() == set(), 'import'\n"
            "for argv in (bound, ('table',), ('table', '--format', 'csv'),\n"
            "             ('sweep', '--param', 'beta', '--range', '1/4:1:1/4',\n"
            "              '--class', 'convex', '--functional', 't21-log-inv'),\n"
            "             ('extremal', '--class', 'starlike', '--phi', 'halfplane')):\n"
            "    assert added(*argv) == set(), argv\n"
            "assert added(*bound, '--format', 'json') == {'json'}\n"
            f"out = {str(tmp_path / 'run.json')!r}\n"
            "assert added(*bound, '--out', out) == {'json', 'datetime'}\n"
            "import json\n"
            "assert json.load(open(out))['numpy'] is None  # not loaded, so not named\n")
        assert done.returncode == 0, done.stderr

    def test_verify_imports_numpy(self):
        done = _fresh_python(
            "import contextlib, io, sys\n"
            "import toepsharp.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--class', 'starlike', '--phi', 'exp',\n"
            "                     '--functional', 't21-inv', '--budget', '10']) == 0\n"
            "assert 'numpy' in sys.modules\n")
        assert done.returncode == 0, done.stderr

    def test_package_resolves_oracle_names_on_demand(self):
        done = _fresh_python(
            "import sys, toepsharp\n"
            "assert 'numpy' not in sys.modules\n"
            "assert toepsharp.oracle is sys.modules['toepsharp.oracle']\n"
            "from toepsharp import maximize, Verdict, lemma1_scan, VerificationReport\n"
            "from toepsharp import oracle\n"
            "assert toepsharp.maximize is maximize is oracle.maximize\n"
            "assert Verdict is oracle.Verdict and lemma1_scan is oracle.lemma1_scan\n"
            "assert VerificationReport is oracle.VerificationReport\n"
            "try:\n"
            "    toepsharp.nonexistent\n"
            "except AttributeError as exc:\n"
            "    assert 'nonexistent' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n")
        assert done.returncode == 0, done.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

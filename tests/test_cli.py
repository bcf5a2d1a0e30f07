"""Command-line surface: outputs, exit codes, and byte stability."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import tiebound
from tiebound import _quadrature, bounds_continuous, bounds_discrete
from tiebound.cli import VERIFY_NS, VERIFY_PS, main, round3
from tiebound.distributions import geometric_law, gumbel_law, law_from_descriptor
from tiebound.maxima import KnSpec, size_biased_tie_law, size_biased_tie_pmf, tie_count_law


def _series_law(descriptor):
    """The law of ``descriptor`` without a lattice rate: a geometric law then runs
    the tie-count series, not its closed form."""
    law = law_from_descriptor(descriptor)
    return dataclasses.replace(law, lattice_rate=None) if hasattr(law, "lattice_rate") else law


@pytest.fixture
def runner(capsys):
    """Runs ``main`` in process; the result carries its exit code and stdout."""
    def invoke(args):
        exit_code = main(args)
        return SimpleNamespace(exit_code=exit_code, output=capsys.readouterr().out)
    return invoke


class TestRounding:
    def test_half_away_from_zero(self):
        assert round3(0.3295) == "0.330"  # agrees with the tie convention
        assert round3(0.0585) == "0.059"
        assert round3(0.1) == "0.100"
        assert round3(2.8086) == "2.809"


class TestBoundCommand:
    def test_poisson_large_sample_cell(self, runner):
        result = runner(["bound", "thm2", "--law", "geometric",
                         "--mu", "100", "--n", "100000"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["bound_rounded"] == "0.330"
        assert doc["method"] == "thm2"

    def test_log_bound_reports_matched_parameter(self, runner):
        result = runner(["bound", "thm1a", "--law", "geometric",
                         "--p", "0.2", "--n", "20"])
        doc = json.loads(result.output)
        assert abs(doc["params"]["alpha"] - 0.2) < 1e-10

    def test_near_order_uniform_hand_value(self, runner):
        result = runner(["bound", "thm3", "--law", "uniform", "--b", "1",
                         "--a", "0.1", "--n", "10", "--ell", "1"])
        doc = json.loads(result.output)
        assert abs(doc["bound"] - 0.5611111111) < 1e-6

    def test_near_order_at_a_large_rank(self, runner):
        # n C(n-1, ell-1), the order-statistic normaliser, overflows a float here
        result = runner(["bound", "thm3", "--law", "gumbel", "--n", "2000", "--ell", "1000",
                         "--a", "0.3"])
        assert result.exit_code == 0
        moments = json.loads(result.output)["moments"]
        for j, key in ((1, "M1"), (2, "M2")):
            exact = bounds_continuous.gumbel_gap_moment_exact(2000, 1000, 0.3, j)
            assert abs(moments[key] - exact) <= 1e-10 * exact

    def test_mixed_binomial_direct(self, runner):
        result = runner(["bound", "thm4", "--n", "10", "--ell", "2",
                         "--eq", "0.1", "--eq2", "0.01"])
        doc = json.loads(result.output)
        assert doc["bound"] > 0.0

    def test_csv_format(self, runner):
        result = runner(["bound", "thm1a", "--law", "geometric",
                         "--p", "0.3", "--n", "10", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0].startswith("method,bound,bound_rounded")
        assert lines[1].startswith("thm1a,")

    def test_usage_error_exit_code(self):
        assert main(["bound", "thm1a", "--law", "geometric"]) == 1  # no --p/--mu
        assert main(["bound", "nosuch", "--n", "5"]) == 1

    def test_degenerate_exit_code(self):
        # n = 1 collapses the matched parameter to zero
        assert main(["bound", "thm1a", "--law", "geometric", "--p", "0.5", "--n", "1"]) == 2
        # a degenerate mixing law has no negative binomial target
        assert main(["bound", "thm4", "--n", "5", "--ell", "1",
                     "--eq", "0", "--eq2", "0"]) == 2

    def test_domain_error_is_usage(self):
        assert main(["bound", "thm1b", "--law", "geometric", "--p", "0.2", "--n", "3"]) == 1

    def test_numeric_failure_exit_code(self, monkeypatch, capsys):
        # a near-unit tail ratio cannot certify the tolerance within the
        # (shrunken) iteration cap, so the series must fail loudly; the law has
        # no lattice rate, since the closed form would certify this point
        monkeypatch.setattr("tiebound._series._SERIES_CAP", 1000)
        monkeypatch.setattr("tiebound.cli.law_from_descriptor", _series_law)
        assert main(["bound", "thm2", "--law", "geometric",
                     "--p", "1e-7", "--n", "5"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("numeric failure: ")
        assert err[1].startswith("best_bound: ") and float(err[1].split()[1]) > 1e-12

    def test_integration_failure_reports_estimate(self, monkeypatch, capsys):
        # thm3 on the built-in laws takes closed-form moments, so the failure is driven
        # through the near-order law at a Gumbel rank 2, which has no closed form and
        # integrates: the pass keeps its integral but reports an error estimate of 0.125,
        # which the law scales by the square root of its width; a pmf has no single
        # value, so `value` is nan
        gk21_pass = _quadrature._gk21_pass
        monkeypatch.setattr("tiebound._quadrature._gk21_pass",
                            lambda *args, **kwargs: (gk21_pass(*args, **kwargs)[0], 0.125))
        assert main(["simulate", "--law", "gumbel", "--n", "10", "--ell", "2", "--a",
                     "0.3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[1].startswith("value: ") and err[2].startswith("error_estimate: ")
        value, estimate = float(err[1].split()[1]), float(err[2].split()[1])
        assert math.isnan(value) and 0.125 <= estimate < math.inf


class TestTable1Command:
    def test_grid_and_dashes(self, runner):
        result = runner(["table1"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "mu,100000,1000000,10000000,100000000,1000000000"
        grid = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
        assert grid[100] == ["0.330", "0.131", "0.103", "0.100", "0.100"]
        assert grid[300] == ["---", "0.283", "0.094", "0.062", "0.058"]
        assert grid[700][0] == "---" and grid[700][1] == "---"

    def test_raw_mode_emits_full_precision(self, runner):
        result = runner(["table1", "--raw"])
        first_cell = result.output.strip().split("\n")[1].split(",")[1]
        assert len(first_cell) > 8  # repr of a float, not a rounded string
        assert float(first_cell) == pytest.approx(0.330, abs=5e-4)

    def test_json_format(self, runner):
        result = runner(["table1", "--format", "json"])
        doc = json.loads(result.output)
        by_mu = {row["mu"]: row["cells"] for row in doc}
        assert by_mu[100]["100000"] == "0.330"
        assert by_mu[900]["100000"] == "---"


class TestFigureCommand:
    def test_fig1_row_count(self, runner):
        result = runner(["figure", "fig1", "--p-count", "7"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "p,thm1a_bound"
        assert len(lines) == 8

    def test_fig2_shape(self, runner):
        result = runner(["figure", "fig2", "--a-count", "21"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "a,bound_n20,bound_n100"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert rows[0][1] == 0.0 and rows[0][2] == 0.0  # vanishes at a = 0
        for col in (1, 2):
            values = [r[col] for r in rows]
            assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(values, values[1:]))


class TestVerifyCommand:
    def test_small_verify_passes(self, runner, monkeypatch):
        # trim the sweep grid so the unit test stays fast
        monkeypatch.setattr("tiebound.cli.VERIFY_PS", (0.2, 0.5))
        monkeypatch.setattr("tiebound.cli.VERIFY_NS", (5, 10))
        monkeypatch.setattr("tiebound.cli.MC_POINTS", ((0.3, 5),))
        result = runner(["verify", "--mc-samples", "20000", "--seed", "7"])
        assert result.exit_code == 0
        assert "VERIFY PASS" in result.output
        assert "FAIL" not in result.output.replace("VERIFY PASS", "")

    def test_fault_injection_trips(self, monkeypatch):
        monkeypatch.setattr("tiebound.cli.VERIFY_PS", (0.2,))
        monkeypatch.setattr("tiebound.cli.VERIFY_NS", (10,))
        assert main(["verify", "--mc-samples", "0", "--inject-fault"]) == 4

    def test_checks_the_library_stein_bound(self, runner, monkeypatch):
        # the bound is 4.8 to 22 times the distance on these rows, so halving
        # it would still pass; a tenth of it fails most of them
        bound = tiebound.stein.log_vs_negbin_bound
        monkeypatch.setattr("tiebound.stein.log_vs_negbin_bound",
                            lambda alpha, beta, ell: bound(alpha, beta, ell) / 10.0)
        result = runner(["verify", "--mc-samples", "0"])
        assert result.exit_code == 4
        assert "FAIL log-vs-negbin" in result.output

    def test_mc_rows_skippable(self, runner, monkeypatch):
        monkeypatch.setattr("tiebound.cli.VERIFY_PS", (0.2,))
        monkeypatch.setattr("tiebound.cli.VERIFY_NS", (5,))
        result = runner(["verify", "--mc-samples", "0"])
        assert result.exit_code == 0
        assert "montecarlo" not in result.output

    @pytest.mark.parametrize("tol", ["1e-13", "1e-15"])
    def test_a_tolerance_below_the_targets_rounding_still_passes(self, runner, tol):
        # the target laws' certificates count about 1e-14 of rounding, so their
        # tolerance stops at 1e-13 and these rows print as at the default
        result = runner(["verify", "--mc-samples", "0", "--tol", tol])
        assert result.exit_code == 0, result.output
        assert result.output == runner(["verify", "--mc-samples", "0"]).output


class TestVerifyLoop:
    """``cmd_verify`` on three stand-in records: the fault factor, the comparison and
    the row format live only there."""

    PASSES = ("passes", 0.5, 0.0, 0.375, ("bound", "tv_hi"))
    FAILS = ("fails", 0.25, 0.0, 0.375, ("bound", "tv_hi"))
    # a Monte-Carlo record: 0.25 alone is below the estimate, 0.25 + 0.25 is not
    SAMPLED = ("sampled", 0.25, 0.25, 0.3125, ("bound+radius", "tv_est"))

    @pytest.fixture
    def checks(self, monkeypatch):
        def use(*records):
            monkeypatch.setattr("tiebound.cli._verify_checks", lambda *args: iter(records))
        return use

    def test_a_failing_record_fails_the_run(self, runner, checks):
        checks(self.PASSES, self.FAILS, self.SAMPLED)
        result = runner(["verify"])
        assert result.exit_code == 4
        assert result.output == ("PASS passes bound=0.500000000 tv_hi=0.375000000\n"
                                 "FAIL fails bound=0.250000000 tv_hi=0.375000000\n"
                                 "PASS sampled tv_est=0.312500000 bound+radius=0.500000000\n"
                                 "VERIFY FAIL\n")

    def test_passing_records_pass_the_run(self, runner, checks):
        checks(self.PASSES, self.SAMPLED)
        result = runner(["verify"])
        assert result.exit_code == 0
        assert result.output.endswith("PASS sampled tv_est=0.312500000 "
                                      "bound+radius=0.500000000\nVERIFY PASS\n")

    def test_the_fault_halves_the_bound_before_the_slack(self, runner, checks):
        # 0.125 + 0.25 still covers 0.3125; (0.25 + 0.25) / 2 would not
        checks(self.PASSES, self.SAMPLED)
        result = runner(["verify", "--inject-fault"])
        assert result.exit_code == 4
        assert result.output == ("FAIL passes bound=0.250000000 tv_hi=0.375000000\n"
                                 "PASS sampled tv_est=0.312500000 bound+radius=0.375000000\n"
                                 "VERIFY FAIL\n")


@pytest.fixture
def series_passes(monkeypatch):
    """The calls of ``_series._sums``, each one pass over the maximum, from here on."""
    calls = []
    sums = tiebound._series._sums
    monkeypatch.setattr(tiebound._series, "_sums", lambda *args: calls.append(args) or sums(*args))
    return calls


def test_verify_sums_the_series_of_each_spec_once(runner, series_passes, monkeypatch):
    # without lattice rates every spec runs the series: one pass for its five bound values
    # and one for its law's entries, which at n <= 50 are one batch
    monkeypatch.setattr("tiebound.cli.law_from_descriptor", _series_law)
    assert runner(["verify", "--mc-samples", "0"]).exit_code == 0
    assert len(series_passes) == 2 * len(VERIFY_PS) * len(VERIFY_NS) == 48


def test_verify_takes_the_closed_form_for_four_specs(runner, series_passes):
    # the specs whose tie-count values all certify in closed form make no pass, for their
    # bounds or for their laws
    assert runner(["verify", "--mc-samples", "0"]).exit_code == 0
    assert len(series_passes) == 2 * (len(VERIFY_PS) * len(VERIFY_NS) - 4)


@pytest.mark.parametrize("series", [True, False], ids=["series", "closed-form"])
def test_verify_reports_equal_the_public_bounds(series_passes, series):
    # every grid n is at least 4, so each spec has all three reports
    public = (bounds_discrete.log_bound_singleton, bounds_discrete.log_bound_second_moment,
              bounds_discrete.poisson_bound)
    for p in VERIFY_PS:
        for n in VERIFY_NS:
            descriptor = {"kind": "geometric", "p": p}
            law = _series_law(descriptor) if series else law_from_descriptor(descriptor)
            spec = KnSpec(law=law, n=n)
            series_passes.clear()
            reports = [r.as_dict() for r in bounds_discrete._reports(spec, 1e-12)]
            passes = len(series_passes)
            assert (passes == 1) if series else (passes <= 1)
            assert reports == [bound(spec, 1e-12).as_dict() for bound in public]
            if series:
                assert len(series_passes) == 1 + len(public)  # one pass per public call


class TestSimulateCommand:
    def test_tie_count_table(self, runner):
        result = runner(["simulate", "--law", "geometric", "--p", "0.5",
                         "--n", "5", "--mc-samples", "5000", "--seed", "3"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "k,count,frequency,exact_pmf"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 5000

    def test_near_order_defaults_for_continuous(self, runner):
        result = runner(["simulate", "--law", "uniform", "--b", "1",
                         "--n", "6", "--a", "0.2",
                         "--mc-samples", "2000", "--seed", "3"])
        assert result.exit_code == 0
        assert result.output.startswith("k,count,frequency,exact_pmf")

    @staticmethod
    def _assert_rows_span_the_law(output, n, ell, a):
        """One row per outcome of the exact law, which stops short of n - ell
        once its entries fall below tiny, each with the law's entry."""
        law = bounds_continuous.near_order_count_pmf(
            bounds_continuous.NearOrderSpec(gumbel_law(), n, ell, a), 1e-9)
        rows = [line.split(",") for line in output.strip().split("\n")[1:]]
        assert [int(row[0]) for row in rows] == list(range(law.k_min, law.k_max + 1))
        assert [float(row[3]) for row in rows] == list(law.probs)
        assert law.k_max < n - ell

    def test_near_order_beyond_float_binomials(self, runner):
        # n - ell = 1999: C(1999, k) as a Python int overflows a float
        result = runner(["simulate", "--law", "gumbel", "--n", "2000",
                         "--a", "0.3", "--mc-samples", "200", "--seed", "3"])
        assert result.exit_code == 0, result.output
        self._assert_rows_span_the_law(result.output, 2000, 1, 0.3)

    def test_near_order_at_a_large_rank(self, runner):
        result = runner(["simulate", "--law", "gumbel", "--n", "2000", "--ell", "1000",
                         "--a", "0.3", "--mc-samples", "1000"])
        assert result.exit_code == 0
        self._assert_rows_span_the_law(result.output, 2000, 1000, 0.3)

    def test_near_order_at_a_billion(self, runner):
        result = runner(["simulate", "--law", "gumbel", "--n", "1000000000",
                         "--a", "0.3", "--mc-samples", "1000"])
        assert result.exit_code == 0
        self._assert_rows_span_the_law(result.output, 10**9, 1, 0.3)

    def test_size_biased_exact_column(self, runner):
        result = runner(["simulate", "--kind", "size-biased", "--p", "0.3",
                         "--n", "10", "--mc-samples", "2000", "--seed", "3"])
        spec = KnSpec(law=geometric_law(0.3), n=10)
        for line in result.output.strip().split("\n")[1:]:
            k, exact = int(line.split(",")[0]), float(line.split(",")[3])
            assert exact == pytest.approx(size_biased_tie_pmf(spec, k), abs=1e-12)

    def test_a_small_p_past_the_mixture_cap(self, runner):
        # the mixture would need 3.3e6 maxima, past its cap: this exited 3 before the
        # closed-form law
        result = runner(["simulate", "--p", "1e-5", "--n", "100", "--mc-samples", "1000",
                         "--seed", "3"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        law = tie_count_law(KnSpec(law=geometric_law(1e-5), n=100), 1e-12)
        assert [float(row[3]) for row in rows] == list(law.probs)
        assert sum(int(row[1]) for row in rows) == 1000

    def test_all_tied_sample_at_a_billion(self, runner):
        result = runner(["simulate", "--law", "tabulated", "--weights", "0,1",
                         "--n", "1000000000", "--mc-samples", "1000", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == ["1000000000,1000,1.0,1.0"]

    def test_size_biased_tail_budget_covers_omitted_outcomes(self):
        # P(K* = k) falls below the smallest normal double, where the law stops,
        # from k = 237 on
        spec = KnSpec(law=geometric_law(0.05), n=240)
        law = size_biased_tie_law(spec, 1e-12)
        assert law.k_max < spec.n  # the certified support, not all of 1..n
        reference = np.array([size_biased_tie_pmf(spec, k) for k in range(1, spec.n + 1)])
        l1 = math.fsum(np.abs(reference[: len(law.probs)] - law.probs).tolist())
        l1 += math.fsum(reference[len(law.probs):].tolist())
        assert l1 <= law.tail_mass_bound


SCIPY_FREE_COMMANDS = {
    "discrete": ["bound", "thm2", "--p", "0.1", "--n", "10"],
    "thm3": ["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"],
    "thm3-ell3": ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3",
                  "--a", "0.05"],
    "simulate-near-order": ["simulate", "--law", "uniform", "--b", "1", "--n", "20", "--a", "0.1",
                            "--mc-samples", "100"],
    "simulate-near-order-ell3": ["simulate", "--law", "uniform", "--b", "1", "--n", "20",
                                 "--ell", "3", "--a", "0.1", "--mc-samples", "100"],
    "verify": ["verify", "--mc-samples", "0"],
    "fig2": ["figure", "fig2"],
    "table1": ["table1"],
}


def _python(*args, check=True):
    """A fresh interpreter that imports this ``tiebound``; returns the finished process."""
    src = os.path.dirname(os.path.dirname(tiebound.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=check)


def _run_python(code):
    return _python("-c", code).stdout


@pytest.mark.parametrize("argv", SCIPY_FREE_COMMANDS.values(), ids=SCIPY_FREE_COMMANDS.keys())
def test_commands_skip_scipy_statistics_and_fractions(argv):
    # no command needs scipy, nor the standard library's statistics or the
    # fractions it imports, so none may load any of them; and only `bound`
    # writes JSON here, so the others may not load json either
    code = ("import contextlib, io, sys, tiebound.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert tiebound.cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n")
    loaded = _run_python(code).strip().split("\n")[-1].split()
    banned = ("scipy", "statistics", "fractions") + (("json",) if argv[0] != "bound" else ())
    assert [m for m in loaded if m.split(".")[0] in banned] == []


# a module that has run has its `__all__`; reading its `__dict__` through
# object.__getattribute__ does not start a lazy load
_UNRUN = ("import sys\n"
          "def unrun(names=('approximants', 'binomial', 'distributions', 'maxima',\n"
          "                 'bounds_discrete', 'bounds_continuous', 'montecarlo', 'stein')):\n"
          "    return sorted(m for m in names if '__all__' not in\n"
          "                  object.__getattribute__(sys.modules['tiebound.' + m], '__dict__'))\n")


def test_commands_run_only_the_modules_they_need():
    code = ("import contextlib, io, json\n"
            "import tiebound\n"
            f"{_UNRUN}"
            "seen = [unrun()]\n"
            "import tiebound.cli\n"
            "for argv in (['bound', 'thm2', '--p', '0.2', '--n', '20'],\n"
            "             ['simulate', '--p', '0.3', '--n', '10', '--mc-samples', '100']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert tiebound.cli.main(argv) == 0\n"
            "    seen.append(unrun())\n"
            "tiebound.stein.__all__\n"
            "seen.append(unrun())\n"
            "print(json.dumps(seen))\n")
    after_import, after_thm2, after_simulate, after_touch = json.loads(_run_python(code))
    assert after_import == ["approximants", "binomial", "bounds_continuous", "bounds_discrete",
                            "distributions", "maxima", "montecarlo", "stein"]
    assert {"bounds_continuous", "montecarlo", "stein"} <= set(after_thm2)
    assert {"bounds_continuous", "stein"} <= set(after_simulate)
    # negative control: touching an attribute runs the module, and the probe sees it
    assert "stein" not in after_touch
    assert set(after_touch) == set(after_simulate) - {"stein"}

    # the layers of the benchmark's commands, run in turn in one interpreter, so that a
    # layer unrun after a group of commands was run by none of them
    seed = ["--seed", "3"]
    groups = [
        # the continuous commands: closed forms only, with no tie-count values
        [["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"],
         ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3",
          "--a", "0.05"],
         ["bound", "thm3", "--law", "gumbel", "--n", "1000000", "--a", "0.3"],
         ["figure", "fig2"],
         ["simulate", "--law", "gumbel", "--n", "100", "--a", "0.3", "--mc-samples", "20000",
          *seed],
         ["simulate", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3", "--a", "0.05",
          "--mc-samples", "20000", *seed]],
        # the discrete bounds in closed form
        [["bound", method, "--p", "1e-3", "--n", "100000"] for method in ("thm1a", "thm1b",
                                                                          "thm2")],
        # positive control: a law whose entries miss the tolerance is the mixture's
        [["simulate", "--p", "0.999", "--n", "1000", "--mc-samples", "2000", *seed]],
        [["table1"], ["figure", "fig1"]],
        # positive control: the Gumbel law has no closed near-order law past rank 1
        [["simulate", "--law", "gumbel", "--n", "20", "--ell", "2", "--a", "0.5",
          "--mc-samples", "2000", *seed]],
    ]
    code = ("import contextlib, io, json\n"
            "import tiebound.cli\n"
            f"{_UNRUN}"
            "layers = ('_series', '_quadrature', 'bounds_discrete')\n"
            "seen = []\n"
            f"for group in {groups!r}:\n"
            "    for argv in group:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert tiebound.cli.main(argv) == 0, argv\n"
            "    seen.append(unrun(layers))\n"
            "print(json.dumps(seen))\n")
    continuous, discrete, mixture, paper, quadrature = json.loads(_run_python(code))
    assert continuous == ["_quadrature", "_series", "bounds_discrete"]
    assert {"_quadrature", "_series"} <= set(discrete)
    assert "_series" not in mixture and "_quadrature" in mixture
    assert "_quadrature" in paper
    assert "_quadrature" not in quadrature


def test_threads_that_first_touch_a_submodule_together_see_it_run():
    # each run needs a fresh interpreter, where `maxima` has not run yet
    code = ("import json, sys, threading\n"
            "import tiebound\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(4)\n"
            "seen = []\n"
            "def touch():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        seen.append(tiebound.maxima.KnSpec.__name__)\n"
            "    except AttributeError as exc:\n"
            "        seen.append(str(exc))\n"
            "threads = [threading.Thread(target=touch, daemon=True) for _ in range(4)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=60)\n"
            "print(json.dumps([seen, [t.is_alive() for t in threads]]))\n")
    for _ in range(3):
        seen, alive = json.loads(_run_python(code))
        assert alive == [False] * 4
        assert seen == ["KnSpec"] * 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_simulate_memory_follows_the_support_not_the_draws():
    # holding the 1e7 draws took 188.5 MB; VmHWM, unlike ru_maxrss, starts
    # afresh at exec and so does not see the memory of the test process
    code = ("import contextlib, io, tiebound.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert tiebound.cli.main(['simulate', '--p', '0.2', '--n', '20',\n"
            "                              '--mc-samples', '10000000']) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM')))\n")
    assert int(_run_python(code)) < 64 * 1024  # kB


# what `from tiebound import *` bound when the package imported every module eagerly
PUBLIC_NAMES = {
    "BoundReport", "ContinuousLaw", "DegenerateParameterError", "DiscreteLaw", "DomainError",
    "EmpiricalPMF", "IntegrationError", "KnSpec", "MixedBinomialSpec", "NearOrderSpec",
    "NumericError", "RngStream", "SteinTestFn", "TVInterval", "TruncatedPMF", "TruncationError",
    "approximants", "argmax_value_law", "binomial", "bounds_continuous", "bounds_discrete",
    "distributions", "empirical_tv", "errors", "gap_ratio", "gap_ratio_moment", "geometric_law",
    "geometric_link_bound", "gumbel_gap_moment", "gumbel_gap_moment_exact", "gumbel_law",
    "gumbel_max_bound", "law_from_descriptor", "log_bound_from_moments",
    "log_bound_second_moment", "log_bound_singleton", "log_pmf", "log_vs_negbin_bound", "maxima",
    "montecarlo", "near_order_count_pmf", "negbin_bound_mixed", "negbin_bound_near_order",
    "negbin_pmf", "poisson_bound", "poisson_pmf", "positive_part_distance",
    "sample_near_order_count", "sample_size_biased_ties", "sample_tie_count",
    "size_biased_tie_pmf", "solution_sup_bound", "stein", "stein_residual", "stein_solution",
    "tabulated_law", "tie_count_factorial_moment", "tie_count_law", "tie_count_pmf",
    "tie_given_max_moment", "tie_given_max_prob", "truncate_law", "truncated_geometric",
    "truncated_log", "truncated_negbin", "truncated_poisson", "tv_distance",
    "uniform_gap_moment", "uniform_gap_moment_exact", "uniform_law",
}


def test_public_api_is_unchanged():
    assert len(PUBLIC_NAMES) == 70
    # in a fresh interpreter, so that no earlier access has bound a name already
    code = ("import json, sys, types\n"
            "namespace = {}\n"
            "exec('from tiebound import *', namespace)\n"
            "del namespace['__builtins__']\n"
            "def defining(name, value):\n"
            "    if isinstance(value, types.ModuleType):\n"
            "        return sys.modules['tiebound.' + name]\n"
            "    return getattr(sys.modules[value.__module__], name)\n"
            "stray = [n for n, v in namespace.items() if v is not defining(n, v)]\n"
            "print(json.dumps([sorted(namespace), stray]))\n")
    bound, stray = json.loads(_run_python(code))
    assert set(bound) == PUBLIC_NAMES
    assert stray == []
    assert PUBLIC_NAMES <= set(dir(tiebound))
    assert tiebound.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        tiebound.no_such_name


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(preset):
    # the variable is set in the child before anything imports numpy
    preset_it = (f"os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}" if preset
                 else "os.environ.pop('OPENBLAS_NUM_THREADS', None)")
    code = ("import json, os\n"
            f"{preset_it}\n"
            "import tiebound.cli\n"
            "from tiebound._numpy import np\n"
            "np.ndarray  # numpy loads at the first use, after the CLI's import\n"
            "tasks = '/proc/self/task'  # Linux only\n"
            "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n")
    value, threads = json.loads(_run_python(code))
    assert value == (preset or "1")
    if preset is None:
        assert threads in (1, None)


def test_a_fresh_process_raises_no_warning():
    # runpy warns when `tiebound.cli` is in sys.modules before it runs it
    proc = _python("-W", "error", "-m", "tiebound.cli", "table1", check=False)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_continuous_path_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every `import scipy...` raise
    code = ("import contextlib, dataclasses, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "import tiebound.cli\n"
            "from tiebound import bounds_continuous as bc, gumbel_law, uniform_law\n"
            f"for argv in {list(SCIPY_FREE_COMMANDS.values())!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert tiebound.cli.main(argv) == 0, argv\n"
            "uniform = uniform_law(1.0)\n"  # and its law without the closed form, by quadrature
            "for law in (gumbel_law(), uniform, dataclasses.replace(uniform, near_order_law=None)):\n"
            "    spec = bc.NearOrderSpec(law=law, n=50, ell=3, a=0.1)\n"
            "    assert bc.negbin_bound_near_order(spec).bound > 0.0\n"
            "    assert abs(bc.near_order_count_pmf(spec).total() - 1.0) < 1e-9\n"
            "assert 0.0 < bc.uniform_gap_moment_exact(200, 3, 0.05, 1.0, 2) < 1.0\n"
            "print('ok')\n")
    assert _run_python(code).strip().split("\n")[-1] == "ok"


def test_outputs_are_byte_stable(runner):
    args = ["simulate", "--law", "geometric", "--p", "0.4", "--n", "6",
            "--mc-samples", "10000", "--seed", "42"]
    first = runner(args).output
    second = runner(args).output
    assert first == second
    args = ["table1"]
    assert runner(args).output == runner(args).output


def test_seed_env_variable(runner, monkeypatch):
    args = ["simulate", "--law", "geometric", "--p", "0.4", "--n", "6",
            "--mc-samples", "5000"]
    monkeypatch.setenv("TIEBOUND_SEED", "777")
    with_env = runner(args).output
    monkeypatch.delenv("TIEBOUND_SEED")
    default = runner(args).output
    explicit = runner(args + ["--seed", "777"]).output
    assert with_env == explicit
    assert with_env != default


MALFORMED = {
    "no-samples": ["simulate", "--p", "0.3", "--n", "5", "--mc-samples", "0"],
    "negative-samples": ["simulate", "--p", "0.3", "--n", "5", "--mc-samples", "-5"],
    "non-numeric-weights": ["simulate", "--law", "tabulated", "--weights", "0.5,abc", "--n", "5"],
    "negative-verify-samples": ["verify", "--mc-samples", "-3"],
    "no-p-points": ["figure", "fig1", "--p-count", "0"],
    "no-a-points": ["figure", "fig2", "--a-count", "0"],
    "seed-not-a-number": ["simulate", "--p", "0.3", "--n", "5", "--seed", "x"],
    "out-in-missing-directory": ["bound", "thm2", "--p", "0.2", "--n", "10",
                                 "--out", "no-such-dir/x"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_one_line_usage_error(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("usage error: ")


def test_malformed_seed_variable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("TIEBOUND_SEED", "abc")
    assert main(["simulate", "--p", "0.3", "--n", "5", "--mc-samples", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "'abc'" in err


EXIT_CODES = {
    "success": (["table1"], 0),
    "bad-choice": (["bound", "nosuch", "--n", "5"], 1),
    "missing-n": (["bound", "thm2", "--p", "0.2"], 1),
    "non-integer-n": (["bound", "thm2", "--p", "0.2", "--n", "1e5"], 1),
    "degenerate": (["bound", "thm1a", "--p", "0.5", "--n", "1"], 2),
    "verification-failure": (["verify", "--inject-fault", "--mc-samples", "0"], 4),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("argv,code", EXIT_CODES.values(), ids=EXIT_CODES.keys())
def test_exit_codes_of_a_real_process(argv, code):
    proc = _python("-m", "tiebound.cli", *argv, check=False)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if argv == ["--help"]:
        assert all(name in proc.stdout for name in ("bound", "table1", "figure", "verify",
                                                    "simulate"))


WRONG_LAW_KIND = {
    "thm1a-continuous": ["bound", "thm1a", "--law", "gumbel", "--n", "10"],
    "thm2-continuous": ["bound", "thm2", "--law", "uniform", "--b", "1", "--n", "10"],
    "ties-continuous": ["simulate", "--law", "gumbel", "--kind", "ties", "--n", "10"],
    "thm3-discrete": ["bound", "thm3", "--law", "geometric", "--p", "0.2", "--n", "10",
                      "--a", "0.1"],
}


@pytest.mark.parametrize("argv", WRONG_LAW_KIND.values(), ids=WRONG_LAW_KIND.keys())
def test_a_law_of_the_wrong_kind_is_a_configuration_error(argv):
    proc = _python("-m", "tiebound.cli", *argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid configuration:")
    assert "Traceback" not in proc.stderr


NOT_FINITE = {
    "verify-infinite-tol": ["verify", "--tol", "inf", "--mc-samples", "0"],
    "simulate-infinite-tol": ["simulate", "--p", "0.2", "--n", "10", "--tol", "inf",
                              "--mc-samples", "10"],
    "thm2-infinite-tol": ["bound", "thm2", "--p", "0.2", "--n", "10", "--tol", "inf"],
    "thm3-nan-tol": ["bound", "thm3", "--law", "gumbel", "--n", "10", "--a", "0.3",
                     "--tol", "nan"],
    "thm3-negative-tol": ["bound", "thm3", "--law", "gumbel", "--n", "10", "--a", "0.3",
                          "--tol", "-1"],
    "thm1a-nan-weight": ["bound", "thm1a", "--law", "tabulated", "--weights", "nan", "--n", "5"],
    "thm2-nan-weight": ["bound", "thm2", "--law", "tabulated", "--weights", "0.5,nan,0.5",
                        "--n", "5"],
    "fig2-nan-threshold": ["figure", "fig2", "--a-min", "nan", "--a-count", "2"],
    # np.linspace turns an infinite end into nan, with a RuntimeWarning
    "fig2-infinite-a-max": ["figure", "fig2", "--a-max", "inf", "--a-count", "2"],
    "fig1-infinite-p-max": ["figure", "fig1", "--p-max", "inf", "--p-count", "2"],
    # a NaN passed every comparison of the E[Q^2] range and printed "bound": NaN
    "thm4-nan-eq2": ["bound", "thm4", "--n", "10", "--ell", "2", "--eq", "0.1", "--eq2", "nan"],
    # an infinite threshold printed the uninformative bound 9.0
    "thm3-infinite-threshold": ["bound", "thm3", "--law", "gumbel", "--n", "10", "--a", "inf"],
}


@pytest.mark.parametrize("argv", NOT_FINITE.values(), ids=NOT_FINITE.keys())
def test_a_number_that_is_not_finite_is_a_configuration_error(argv):
    proc = _python("-m", "tiebound.cli", *argv, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("invalid configuration:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_an_infinite_sweep_end_is_named(capsys):
    assert main(["figure", "fig2", "--a-max", "inf", "--a-count", "2"]) == 1
    assert capsys.readouterr().err == "invalid configuration: --a-max must be finite, got inf\n"


def test_main_leaves_the_collector_alone(runner):
    before = gc.get_freeze_count()
    assert runner(["bound", "thm2", "--p", "0.1", "--n", "10"]).exit_code == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_the_import_heap_before_the_command():
    code = ("import gc, tiebound.cli as cli\n"
            "cli.main = lambda argv=None: print(gc.get_freeze_count()) or 0\n"
            "cli.run()\n")
    # importing the package alone, without numpy, leaves over 10^4 objects to freeze
    assert int(_run_python(code)) > 10_000


def test_numpy_loading_after_a_freeze_is_frozen_too():
    # numpy loads after `run` froze the heap; the handle freezes its objects as well, and
    # leaves a process that never froze its heap alone
    code = ("import gc, json\n"
            "from tiebound._numpy import np\n"
            "for freeze in {freeze}:\n"
            "    gc.freeze()\n"
            "before = gc.get_freeze_count()\n"
            "np.ndarray\n"
            "print(json.dumps([before, gc.get_freeze_count()]))\n")
    before, after = json.loads(_run_python(code.format(freeze="[1]")))
    assert after > before + 5_000  # numpy's own objects
    assert json.loads(_run_python(code.format(freeze="[]"))) == [0, 0]


# commands that need no array, with their exit codes
NUMPY_FREE_COMMANDS = {
    "thm1a": (["bound", "thm1a", "--p", "1e-3", "--n", "100000"], 0),
    "thm1b": (["bound", "thm1b", "--p", "1e-3", "--n", "100000"], 0),
    "thm2": (["bound", "thm2", "--p", "1e-3", "--n", "100000"], 0),
    "fig2": (["figure", "fig2"], 0),
    # short series: every pass certifies within its first four blocks, summed in Python
    "table1": (["table1"], 0),
    "table1-raw": (["table1", "--raw"], 0),
    "fig1": (["figure", "fig1"], 0),
    "fig1-n50": (["figure", "fig1", "--n", "50"], 0),
    "thm2-series": (["bound", "thm2", "--p", "0.3", "--n", "10"], 0),
    # thm3 on the built-in laws: closed-form gap-ratio moments, no quadrature
    "thm3-gumbel": (["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"], 0),
    "thm3-uniform": (["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3",
                      "--a", "0.05"], 0),
    # a geometric law's histogram, drawn from random.Random, and a closed-form exact law
    "simulate": (["simulate", "--p", "0.01", "--n", "10000", "--mc-samples", "2000"], 0),
    "simulate-many-draws": (["simulate", "--p", "0.01", "--n", "10000", "--mc-samples",
                             "10000000"], 0),
    # an exact law past the closed form's border, its entries from short series
    "simulate-series": (["simulate", "--p", "0.3", "--n", "50", "--mc-samples", "2000"], 0),
    # series of up to about 600 terms, closed-form near-order laws and histograms drawn
    # from random.Random
    "verify": (["verify"], 0),
    "verify-seed": (["verify", "--seed", "3"], 0),
    "verify-no-mc": (["verify", "--mc-samples", "0"], 0),
    "help": (["--help"], 0),
    "usage-error": (["bound", "thm2", "--p", "1e-3"], 1),
}
_MAIN_AND_NUMPY = ("import contextlib, io, json, sys, tiebound.cli\n"
                   "out, err = io.StringIO(), io.StringIO()\n"
                   "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                   "    code = tiebound.cli.main({argv!r})\n"
                   "print(json.dumps([code, 'numpy' in sys.modules, out.getvalue()]))\n")


@pytest.mark.parametrize("argv,exit_code", NUMPY_FREE_COMMANDS.values(),
                         ids=NUMPY_FREE_COMMANDS.keys())
def test_commands_without_arrays_never_import_numpy(argv, exit_code):
    code, numpy_loaded, _ = json.loads(_run_python(_MAIN_AND_NUMPY.format(argv=argv)))
    assert (code, numpy_loaded) == (exit_code, False)


def test_a_short_series_point_skips_numpy_and_keeps_its_result():
    # p = 0.3, n = 10 lies past the closed form's border, so the series runs, in a short
    # pass; its stdout is the one the numpy blocks gave, bit for bit
    argv = ["bound", "thm2", "--p", "0.3", "--n", "10"]
    code, numpy_loaded, out = json.loads(_run_python(_MAIN_AND_NUMPY.format(argv=argv)))
    assert (code, numpy_loaded) == (0, False)
    assert out == (
        '{"bound": 1.5642061429629175, "bound_rounded": "1.564", "informative": false, '
        '"law": {"kind": "geometric", "p": 0.3}, "method": "thm2", "moments": '
        '{"EK": 1.2015759467343854, "EK2_factorial": 0.5149635143481841, '
        '"EK3_factorial": 0.44130169088686005}, "n": 10, "params": {"lambda": '
        '0.42857342122047276}, "truncation_error": 1.251364914370334e-11}\n')


def test_a_series_past_the_short_budget_imports_numpy():
    # control: at tol 1e-300 the series of p = 0.1 cannot certify within 960 terms, as
    # 960 log 0.9 is about -101
    argv = ["bound", "thm2", "--p", "0.1", "--n", "10", "--tol", "1e-300"]
    code, numpy_loaded, _ = json.loads(_run_python(_MAIN_AND_NUMPY.format(argv=argv)))
    assert (code, numpy_loaded) == (0, True)


@pytest.mark.parametrize("first,last,count", [
    (0.02, 0.5, 25), (0.0, 2.0, 41), (2.0, -1.0, 7), (0.3, 0.3, 4), (1.0, 5.0, 1),
    (0.0, 5e-324, 3), (-1e300, 1e300, 5), (0.1, 0.7, 1000),
])
def test_sweep_points_are_those_of_numpy_linspace(first, last, count):
    from tiebound.cli import _sweep

    points = _sweep("p", first, last, count)
    assert all(type(x) is float for x in points)
    assert np.array_equal(np.array(points), np.linspace(first, last, count))

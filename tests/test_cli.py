"""Command-line surface: outputs, exit codes, and byte stability."""

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
from tiebound import bounds_continuous
from tiebound.cli import main, round3
from tiebound.distributions import geometric_law
from tiebound.maxima import KnSpec, size_biased_tie_law, size_biased_tie_pmf


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
        # (shrunken) iteration cap, so the series must fail loudly
        monkeypatch.setattr("tiebound.maxima._SERIES_CAP", 1000)
        assert main(["bound", "thm2", "--law", "geometric",
                     "--p", "1e-7", "--n", "5"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("numeric failure: ")
        assert err[1].startswith("best_bound: ") and float(err[1].split()[1]) > 1e-12

    def test_integration_failure_reports_estimate(self, monkeypatch, capsys):
        # the pass returns the normaliser first: it integrates the density too
        monkeypatch.setattr("tiebound.bounds_continuous._gk21_pass",
                            lambda *args, **kwargs: (np.array([1.0, 0.5, 0.25]), 0.125))
        assert main(["bound", "thm3", "--law", "gumbel", "--n", "10", "--a", "0.3"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[1].startswith("value: ") and err[2].startswith("error_estimate: ")
        value, estimate = float(err[1].split()[1]), float(err[2].split()[1])
        assert estimate == pytest.approx(value / 4.0)  # 0.125 / 0.5, both rescaled alike


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

    def test_mc_rows_skippable(self, runner, monkeypatch):
        monkeypatch.setattr("tiebound.cli.VERIFY_PS", (0.2,))
        monkeypatch.setattr("tiebound.cli.VERIFY_NS", (5,))
        result = runner(["verify", "--mc-samples", "0"])
        assert result.exit_code == 0
        assert "montecarlo" not in result.output


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

    def test_near_order_beyond_float_binomials(self, runner):
        # n - ell = 1999: C(1999, k) as a Python int overflows a float
        result = runner(["simulate", "--law", "gumbel", "--n", "2000",
                         "--a", "0.3", "--mc-samples", "200", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert len(result.output.strip().split("\n")) == 1 + 2000

    def test_near_order_at_a_large_rank(self, runner):
        result = runner(["simulate", "--law", "gumbel", "--n", "2000", "--ell", "1000",
                         "--a", "0.3", "--mc-samples", "1000"])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 1 + 1001

    def test_size_biased_exact_column(self, runner):
        result = runner(["simulate", "--kind", "size-biased", "--p", "0.3",
                         "--n", "10", "--mc-samples", "2000", "--seed", "3"])
        spec = KnSpec(law=geometric_law(0.3), n=10)
        for line in result.output.strip().split("\n")[1:]:
            k, exact = int(line.split(",")[0]), float(line.split(",")[3])
            assert exact == pytest.approx(size_biased_tie_pmf(spec, k), abs=1e-12)

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
        l1 = math.fsum(np.abs(reference[: law.probs.size] - law.probs).tolist())
        l1 += math.fsum(reference[law.probs.size:].tolist())
        assert l1 <= law.tail_mass_bound


SCIPY_FREE_COMMANDS = {
    "discrete": ["bound", "thm2", "--p", "0.1", "--n", "10"],
    "thm3": ["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"],
    "simulate-near-order": ["simulate", "--law", "uniform", "--b", "1", "--n", "20", "--a", "0.1",
                            "--mc-samples", "100"],
    "simulate-near-order-ell3": ["simulate", "--law", "uniform", "--b", "1", "--n", "20",
                                 "--ell", "3", "--a", "0.1", "--mc-samples", "100"],
    "verify": ["verify", "--mc-samples", "0"],
    "fig2": ["figure", "fig2"],
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
def test_commands_import_only_the_scipy_they_need(argv):
    # since no command needs scipy, none may load any of it
    code = ("import contextlib, io, json, sys, tiebound.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert tiebound.cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = json.loads(_run_python(code).strip().split("\n")[-1])
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_continuous_path_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every `import scipy...` raise
    code = ("import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "import tiebound.cli\n"
            "from tiebound import bounds_continuous as bc, gumbel_law, uniform_law\n"
            f"for argv in {list(SCIPY_FREE_COMMANDS.values())!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert tiebound.cli.main(argv) == 0, argv\n"
            "for law in (gumbel_law(), uniform_law(1.0)):\n"
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


def test_main_leaves_the_collector_alone(runner):
    before = gc.get_freeze_count()
    assert runner(["bound", "thm2", "--p", "0.1", "--n", "10"]).exit_code == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_the_import_heap_before_the_command():
    code = ("import gc, tiebound.cli as cli\n"
            "cli.main = lambda argv=None: print(gc.get_freeze_count()) or 0\n"
            "cli.run()\n")
    # importing numpy and the package alone leaves over 10^4 objects to freeze
    assert int(_run_python(code)) > 10_000

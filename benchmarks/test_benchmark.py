"""Tests of the benchmark itself: output checks, negative control, metric names.

Run from the root of a checkout::

    python3 -m pytest benchmarks
"""

import json
import sys

import pytest

import run
from checks import check_output

ROOT_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


def all_commands():
    return [(cmd_id, template) for commands in run.WORKLOADS.values()
            for cmd_id, template in commands]


@pytest.mark.parametrize("cmd_id,template", all_commands())
def test_reference_passes_its_own_check(cmd_id, template):
    ref = run.reference(cmd_id)
    assert check_output(run.command_argv(template, 0), ref, ref) is None


def test_negative_control_drives_failed_ratio_above_zero():
    tally = run.Tally()
    fault = [("verify", ["verify", "--inject-fault", run.SEED])]
    assert run.fresh_process_pass(fault, 5, run.Clock(), tally) is not None
    assert len(tally.failures) == 1 and "exit code 4" in tally.failures[0]

    code, out, _, _, _ = run.run_child(
        ["-m", "tiebound.cli", "verify", "--inject-fault", "--seed", "5"], 120.0)
    assert code == 4 and "FAIL discrete" in out
    assert check_output(["verify"], out, run.reference("verify")) is not None

    assert run.judge("verify", ["verify"], 0, "\nVERIFY PASS\n").startswith("malformed")
    table = run.reference("table1").replace("0.330", "0.331", 1)
    tally.record("table1", run.judge("table1", ["table1"], 0, table))
    tally.record("fig1", run.judge("fig1", ["figure", "fig1"], 0, run.reference("fig1")))
    assert tally.attempted == 3 and len(tally.failures) == 2
    assert 0.0 < len(tally.failures) / tally.attempted < 1.0


def test_simulate_check_rejects_wrong_frequencies_and_pmf():
    argv = run.command_argv(dict(all_commands())["simulate-geometric"], 0)
    ref = run.reference("simulate-geometric")
    header, *rows = ref.splitlines()
    samples = int(argv[argv.index("--mc-samples") + 1])
    # every replication moved to k = 2: counts still sum, frequencies are far off
    moved = [header] + [f"{r.split(',')[0]},{samples if r.startswith('2,') else 0},"
                        f"{1.0 if r.startswith('2,') else 0.0},{r.split(',')[3]}" for r in rows]
    assert "radius" in check_output(argv, "\n".join(moved) + "\n", ref)
    k, count, freq, pmf = rows[0].split(",")
    shifted = [header, f"{k},{count},{freq},{float(pmf) + 1e-6}"] + rows[1:]
    assert "exact_pmf" in check_output(argv, "\n".join(shifted) + "\n", ref)


def test_importtime_breakdown_takes_outermost_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |   tiebound.approximants",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        40 |         50 |     scipy",
        "import time:        70 |         80 |       scipy.special",
        "import time:        20 |        100 |     scipy.stats",
        "import time:         5 |        505 |   tiebound.bounds_continuous",
        "import time:         3 |        858 | tiebound",
    ])
    metrics = run.importtime_breakdown(stderr)
    assert metrics["setup.import_numpy_s"] == pytest.approx(300e-6)
    assert metrics["setup.import_scipy_s"] == pytest.approx(150e-6)
    assert metrics["setup.import_click_s"] == 0.0
    assert metrics["setup.import_tiebound_self_s"] == pytest.approx(58e-6)


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(run.SRC))
    import tiebound
    import tiebound.cli as cli
    from tracer import Tracer

    before = (cli.tie_count_law, cli.law_from_descriptor, tiebound.tie_count_pmf,
              tiebound.montecarlo.argmax_value_law, tiebound.EmpiricalPMF.from_samples)
    tracer = Tracer()
    with tracer.installed():
        assert cli.tie_count_law is not before[0]
        assert tiebound.bounds_discrete.tie_count_pmf is not before[2]
        cli.main(["bound", "thm2", "--p", "0.2", "--n", "20"])
    after = (cli.tie_count_law, cli.law_from_descriptor, tiebound.tie_count_pmf,
             tiebound.montecarlo.argmax_value_law, tiebound.EmpiricalPMF.from_samples)
    assert after == before
    names = {s["name"] for s in tracer.spans}
    assert {"bounds_discrete.poisson_bound", "maxima.tie_count_factorial_moment"} <= names
    assert tracer.law_calls["pmf"] > 0


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads(ROOT_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()

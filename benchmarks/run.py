"""End-to-end and per-layer benchmark of the ``tiebound`` command line.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload discrete-tail --seed 1 --seconds 20 --trace 0

Each workload is a fixed sequence of CLI calls, ``python -m tiebound.cli ...``
with ``PYTHONPATH=src``, run in a closed loop by one client: one call at a
time, each in a fresh process, so interpreter start and import are counted.

``--trace 0`` repeats passes over the workload until ``--seconds`` have
passed, then makes fresh-interpreter set-up probes, and reports the
end-to-end metrics: ``wall_s`` (a pass's wall time, from each command's
median over the passes), ``setup_s`` (median start + ``import
tiebound.cli``), both at a reference machine speed (see ``CAL_REF_S``), and
``peak_rss_mb`` (median over passes of the largest child max-RSS).  It also
prints ``failed_ratio``.

``--trace 1`` reports per-layer metrics instead: one fresh-process pass
(child CPU time), ``-X importtime`` probes (the set-up breakdown), then
alternating untraced and traced in-process passes of ``cli.main``; the
spans are written as JSON lines under ``benchmarks/out``.

Every command's output is checked (see ``checks.py``); a failed check, an
unexpected exit code or a timeout counts the command as failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from checks import check_output
from tracer import LAW_FUNCTIONS, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

SEED = object()  # replaced by ["--seed", <workload seed>] in every Monte-Carlo call

WORKLOADS = {
    # the 1/p axis: long scalar series in `maxima`, plus a sampler at 2e7 cells
    "discrete-tail": [
        ("thm2-p1e-3", ["bound", "thm2", "--p", "1e-3", "--n", "100000"]),
        ("thm1a-p1e-3", ["bound", "thm1a", "--p", "1e-3", "--n", "100000"]),
        ("thm1b-p1e-3", ["bound", "thm1b", "--p", "1e-3", "--n", "100000"]),
        ("simulate-geometric", ["simulate", "--p", "0.01", "--n", "10000",
                                "--mc-samples", "2000", SEED]),
    ],
    # binomial-mixture and moment quadrature; no discrete series at all
    "continuous-quadrature": [
        ("thm3-gumbel-n100", ["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"]),
        ("thm3-uniform-n200", ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "200",
                               "--ell", "3", "--a", "0.05"]),
        ("thm3-gumbel-n1e6", ["bound", "thm3", "--law", "gumbel", "--n", "1000000",
                              "--a", "0.3"]),
        ("simulate-gumbel", ["simulate", "--law", "gumbel", "--n", "100", "--a", "0.3",
                             "--mc-samples", "20000", SEED]),
        ("simulate-uniform", ["simulate", "--law", "uniform", "--b", "1", "--n", "200",
                              "--ell", "3", "--a", "0.05", "--mc-samples", "20000", SEED]),
        ("fig2", ["figure", "fig2"]),
    ],
    # the paper's artifacts: many short series, start-up dominated
    "paper-reproduce": [
        ("table1", ["table1"]),
        ("fig1", ["figure", "fig1"]),
        ("verify", ["verify", SEED]),
    ],
}

SETUP_PROBES = 3
# The speed of this kind of shared machine drifts by up to +-25% between
# minutes, and moves the CLI calls and a fresh interpreter importing numpy
# alike.  Each command's wall time is therefore divided by the speed factor
# that this calibration call measures just before and just after it: timed
# end-to-end values are "seconds at the reference speed", where the
# calibration call takes CAL_REF_S.  It does not depend on tiebound.
CALIBRATION = ["-c", "import numpy"]
CAL_REF_S = 0.25
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run, so that it ends within 180 s

# functions reported one by one, and groups reported as one
SPANNED = ("maxima.tie_count_factorial_moment", "maxima.tie_count_pmf", "maxima.tie_count_law",
           "bounds_discrete.log_bound_singleton", "bounds_discrete.log_bound_second_moment",
           "bounds_discrete.poisson_bound", "bounds_continuous.near_order_count_pmf",
           "bounds_continuous.gap_ratio_moment", "bounds_continuous.negbin_bound_near_order")
GROUPS = {
    "approximants.truncate": ("approximants.truncated_log", "approximants.truncated_poisson",
                              "approximants.truncated_negbin", "approximants.truncated_geometric"),
    "approximants.tv": ("approximants.tv_distance", "approximants.positive_part_distance"),
    "montecarlo.sample": ("montecarlo.sample_tie_count", "montecarlo.sample_size_biased_ties",
                          "montecarlo.sample_near_order_count"),
    "montecarlo.empirical": ("montecarlo.EmpiricalPMF.from_samples", "montecarlo.empirical_tv"),
}
LAYERS = ("cli", "maxima", "bounds_discrete", "bounds_continuous", "approximants", "montecarlo")
IMPORTS = {"setup.import_numpy_s": "numpy", "setup.import_scipy_s": "scipy",
           "setup.import_click_s": "click"}


def per_layer_units() -> dict:
    """Per-layer metric names and units; "count" metrics must repeat exactly."""
    units = {}
    for kind in LAW_FUNCTIONS:
        units[f"distributions.{kind}_calls"] = "count"
        units[f"distributions.{kind}_points"] = "count"
    for name in SPANNED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["bounds_continuous.gumbel_max_bound.calls"] = "count"
    units["maxima.law_outcomes"] = "count"
    for group in GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    units["approximants.truncated_terms"] = "count"
    units["montecarlo.replications"] = "count"
    units["montecarlo.cells"] = "count"
    units["montecarlo.cells_per_s"] = "1/s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in IMPORTS:
        units[name] = "s"
    units["setup.import_tiebound_self_s"] = "s"
    units["cli.main_s"] = "s"
    units["cli.main_traced_s"] = "s"
    units["trace.overhead_ratio"] = "1"
    units["cli.child_cpu_s"] = "s"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def command_argv(template, seed: int) -> list:
    argv = []
    for arg in template:
        argv += ["--seed", str(seed)] if arg is SEED else [arg]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TIEBOUND_SEED", None)
    return env


class Clock:
    """Run deadline: commands get the time left before RUN_LIMIT_S."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return RUN_LIMIT_S - self.elapsed()


def run_child(args, timeout: float):
    """Run one Python child to completion; return (code, stdout, stderr, wall, rusage).

    ``code`` is None when the child was killed at ``timeout``.  The child is
    always reaped before this returns.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = proc.returncode if ready else None
        return (code, out.read().decode(), err.read().decode(), wall, usage)


def reference(cmd_id: str) -> str:
    return (REFS / f"{cmd_id}.out").read_text()


def judge(cmd_id, argv, code, out, err=""):
    """Reason the command failed, or None when its output passed its check."""
    if code is None:
        return "timed out"
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return f"exit code {code} {tail[0]}".strip()
    try:
        return check_output(argv, out, reference(cmd_id))
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed output: {exc!r}"


class Tally:
    """Commands attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, cmd_id: str, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{cmd_id}: {reason}")
            print(f"FAILED {cmd_id}: {reason}", file=sys.stderr)


def calibrate() -> float:
    """Seconds the calibration call takes now."""
    code, _, err, wall, _ = run_child(CALIBRATION, 60.0)
    if code != 0:
        raise RuntimeError(f"calibration call failed: {err.strip()}")
    return wall


def at_reference_speed(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CAL_REF_S / (0.5 * (cal_before + cal_after))


def fresh_process_pass(commands, seed: int, clock: Clock, tally: Tally):
    """One pass, each command in a fresh interpreter, with a calibration between commands.

    Returns (per-command wall_s at reference speed, raw wall_s, peak_rss_mb,
    child_cpu_s), or None when the run's time ran out before the pass ended.
    """
    results = []
    cals = [calibrate()]
    for cmd_id, template in commands:
        argv = command_argv(template, seed)
        code, out, err, wall, usage = run_child(["-m", "tiebound.cli", *argv], clock.left())
        cals.append(calibrate())
        results.append((cmd_id, argv, code, out, err, wall, usage))
        if code is None:
            break
    for cmd_id, argv, code, out, err, _, _ in results:
        tally.record(cmd_id, judge(cmd_id, argv, code, out, err))
    if len(results) < len(commands) or results[-1][2] is None:
        return None
    raw = sum(r[5] for r in results)
    walls = [at_reference_speed(r[5], cals[i], cals[i + 1]) for i, r in enumerate(results)]
    peak = max(r[6].ru_maxrss for r in results) / 1024.0
    cpu = sum(r[6].ru_utime + r[6].ru_stime for r in results)
    return walls, raw, peak, cpu


def setup_probes(count: int, clock: Clock) -> list:
    """Start + ``import tiebound.cli`` at reference speed, for each probe that succeeds."""
    probes = []
    before = calibrate()
    for _ in range(count):
        code, _, _, wall, _ = run_child(["-c", "import tiebound.cli"], clock.left())
        after = calibrate()
        if code == 0:
            probes.append(at_reference_speed(wall, before, after))
        before = after
    return probes


def importtime_breakdown(stderr: str) -> dict:
    """Set-up metrics from ``python -X importtime`` output.

    A package's import cost is the cumulative time of its outermost import
    lines (those with no ancestor from the same package); ``tiebound``'s own
    cost is the summed self time of its modules.
    """
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        lines.append((indent, name.strip(), int(self_us), int(cum_us)))
    # importtime prints children before their parent; reversed, parents come first
    outermost = defaultdict(int)
    tiebound_self = 0
    stack = []
    for indent, name, self_us, cum_us in reversed(lines):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        top = name.partition(".")[0]
        if all(a[1] != top for a in stack):
            outermost[top] += cum_us
        if top == "tiebound":
            tiebound_self += self_us
        stack.append((indent, top))
    metrics = {metric: outermost[pkg] / 1e6 for metric, pkg in IMPORTS.items()}
    metrics["setup.import_tiebound_self_s"] = tiebound_self / 1e6
    return metrics


def importtime_probe(clock: Clock):
    code, _, err, _, _ = run_child(["-X", "importtime", "-c", "import tiebound.cli"],
                                   clock.left())
    return importtime_breakdown(err) if code == 0 else None


def in_process_pass(cli, commands, seed: int, tally: Tally, tracer=None):
    """Call ``cli.main`` once per command in this process; return its summed time."""
    total = 0.0
    for cmd_id, template in commands:
        argv = command_argv(template, seed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(argv)
                total += time.perf_counter() - start
            else:
                tracer.command = cmd_id
                with tracer.span("cli.main", command_point(argv)) as root:
                    code = cli.main(argv)
                total += root["end"] - root["start"]
        tally.record(cmd_id, judge(cmd_id, argv, code, out.getvalue()))
    return total


def command_point(argv) -> dict:
    """The parameter point of a CLI call: its subcommand, method and flags."""
    point = {"command": " ".join(a for a in argv[:2] if not a.startswith("--"))}
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--") and flag != "--seed":
            try:
                point[flag[2:]] = float(value)
            except ValueError:
                point[flag[2:]] = value
    return point


def layer_metrics(tracer, main_s: float, main_traced_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, outcomes = Counter(), defaultdict(float), Counter()
    replications = cells = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = span["name"]
        calls[name] += 1
        self_s[name] += own
        outcomes[name] += span.get("outcomes", 0)
        if name in GROUPS["montecarlo.sample"]:
            size = span["point"].get("size", 1)
            replications += size
            cells += size * span["point"]["n"]
    m = {}
    for kind in LAW_FUNCTIONS:
        m[f"distributions.{kind}_calls"] = tracer.law_calls[kind]
        m[f"distributions.{kind}_points"] = int(tracer.law_points[kind])
    for name in SPANNED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["bounds_continuous.gumbel_max_bound.calls"] = calls["bounds_continuous.gumbel_max_bound"]
    m["maxima.law_outcomes"] = outcomes["maxima.tie_count_law"]
    for group, members in GROUPS.items():
        m[f"{group}.calls"] = sum(calls[f] for f in members)
        m[f"{group}.self_s"] = sum(self_s[f] for f in members)
    # truncated_* delegate their loop to truncate_law
    m["approximants.truncate.self_s"] += self_s["approximants.truncate_law"]
    m["approximants.truncated_terms"] = sum(outcomes[f] for f in GROUPS["approximants.truncate"])
    m["montecarlo.replications"] = replications
    m["montecarlo.cells"] = cells
    sample_s = m["montecarlo.sample.self_s"]
    m["montecarlo.cells_per_s"] = cells / sample_s if sample_s > 0 else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for f, t in self_s.items() if f.startswith(layer + "."))
    m["cli.main_s"] = main_s
    m["cli.main_traced_s"] = main_traced_s
    m["trace.overhead_ratio"] = main_traced_s / main_s
    return m


def median_metrics(samples: list) -> dict:
    """Median of each time over passes; counts must repeat, and a warning says when not."""
    units = per_layer_units()
    merged = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if units[name] != "count":
            merged[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            print(f"WARNING count {name} differs between passes: {values}", file=sys.stderr)
        merged[name] = values[0]
    return merged


def run_end_to_end(commands, seed: int, seconds: float, clock: Clock, tally: Tally):
    """Passes until ``seconds`` have passed, then the set-up probes.

    A command's time in a pass is noisy with heavy tails, so ``wall_s`` sums
    each command's median over the passes.
    """
    walls, raws, peaks = [], [], []
    while True:
        result = fresh_process_pass(commands, seed, clock, tally)
        if result is None:
            break
        walls.append(result[0])
        raws.append(result[1])
        peaks.append(result[2])
        if clock.elapsed() >= seconds or clock.left() < 2.0 * result[1]:
            break
    setups = setup_probes(SETUP_PROBES, clock)
    if not walls or not setups:
        return None
    print(f"{len(walls)} passes, {len(setups)} set-up probes; raw pass wall "
          f"{statistics.median(raws):.3f} s", file=sys.stderr)
    return {"wall_s": sum(statistics.median(w) for w in zip(*walls)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks)}


def run_traced(workload: str, commands, seed: int, seconds: float, clock: Clock, tally: Tally):
    sys.path.insert(0, str(SRC))
    import tiebound.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "tiebound":
        raise RuntimeError(f"imported tiebound from {cli.__file__}, not from {SRC}")
    first = fresh_process_pass(commands, seed, clock, tally)
    breakdowns = [importtime_probe(clock) for _ in range(IMPORTTIME_PROBES)]
    breakdowns = [b for b in breakdowns if b is not None]
    if first is None or not breakdowns:
        return None
    tracer = Tracer()
    samples, spans = [], []
    while True:
        main_s = in_process_pass(cli, commands, seed, tally)
        tracer.reset()
        with tracer.installed():
            traced_s = in_process_pass(cli, commands, seed, tally, tracer)
        samples.append(layer_metrics(tracer, main_s, traced_s))
        spans += [dict(s, run_pass=len(samples)) for s in tracer.spans]
        if clock.elapsed() >= seconds or clock.left() < 3.0 * (main_s + traced_s):
            break
    metrics = median_metrics(samples)
    metrics.update({name: statistics.median(b[name] for b in breakdowns)
                    for name in breakdowns[0]})
    metrics["cli.child_cpu_s"] = first[3]
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            span = dict(span, start=span["start"] - clock.start, end=span["end"] - clock.start)
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"{len(samples)} traced passes; spans in {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "tiebound" / "cli.py").is_file():
        print(f"no tiebound sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    clock, tally = Clock(), Tally()
    commands = WORKLOADS[args.workload]
    if args.trace:
        metrics = run_traced(args.workload, commands, args.seed, args.seconds, clock, tally)
        units = per_layer_units()
    else:
        metrics = run_end_to_end(commands, args.seed, args.seconds, clock, tally)
        units = END_TO_END_UNITS
    if metrics is None:
        print("the run ended before one complete pass", file=sys.stderr)
        return 3
    failed = len(tally.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_ratio':<48} {failed / tally.attempted:>16.6g} 1"
          f"  ({failed} of {tally.attempted} commands)")
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

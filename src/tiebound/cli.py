"""Command-line front end.

Subcommands:

* ``bound``    - evaluate one bound (method ids: thm1a, thm1b, thm2, thm3, thm4)
                 on a JSON-describable law and emit the report.
* ``table1``   - the 5x5 Poisson-bound grid over mu in {100,...,900} and
                 n in {1e5,...,1e9} for geometric data with p = 1 - mu/n.
* ``figure``   - plot-ready sweeps: ``fig1`` (logarithmic bound vs p at fixed n)
                 and ``fig2`` (Gumbel near-maximum bound vs a for n = 20, 100).
* ``verify``   - dominance sweeps of every bound against certified exact
                 total-variation values (optionally plus Monte-Carlo rows);
                 nonzero exit on any violation.
* ``simulate`` - seeded empirical pmf of a tie/near-order count next to the
                 exact law.

Exit codes: 0 success, 1 usage error, 2 degenerate parameter, 3 numeric
failure (truncation/integration), 4 verification failure.  The default seed
comes from the TIEBOUND_SEED environment variable when set.

Commands that need no array never import numpy: ``--help``, usage errors,
``figure fig2``, ``table1``, ``verify``, whose continuous rows take the
near-order laws in closed form, ``figure fig1`` at its default n = 20,
``bound thm1a|thm1b|thm2`` on a geometric law wherever the closed form of
its tie-count values certifies the tolerance or their series is short enough
to sum in plain Python (see ``maxima``), and on a tabulated law on at most
960 points, whose series always are, ``bound thm3`` on the Gumbel law and,
wherever its binomial tails are short, on the uniform law with n - ell >= 2,
whose gap-ratio moments have closed forms (see ``bounds_continuous``), and
``simulate`` of the tie count on a geometric or such a tabulated law where
its exact law certifies from its entries, each in closed form or from a
short series (see ``maxima``), such as ``simulate --p 0.01 --n 10000
--mc-samples 10000000``, ``simulate --p 0.3 --n 50`` or ``simulate --law
tabulated --weights 0.2,0.3,0.5 --n 7``, and ``simulate`` of the near-order
count on the Gumbel and uniform laws wherever their near-order laws have
closed forms, such as ``simulate --law gumbel --n 100 --a 0.3``: every draw
of ``simulate`` and ``verify`` comes from one generator, ``random.Random``,
at every size (see ``montecarlo``).  The rest import it when they first
need it, through the package's shared lazy handle (``tiebound._numpy``).

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is set already,
so the CLI runs its few small BLAS calls on one thread; OpenBLAS reads it when
numpy first loads, so set it before that to choose another count.

The console entry point ``run`` freezes the heap before the command starts:
the modules just imported live until exit, so no garbage collection during the
command or at shutdown needs to walk them again.  numpy loads after that
freeze, so the lazy handle freezes the heap once more right after it loads;
without that, ``verify`` and ``bound thm3``, which then integrated, ran 6-8 ms
slower.  The package's
other submodules load lazily too, and those a command first touches after the
last freeze are not frozen.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys

# numpy's bundled OpenBLAS starts worker threads at import that spin for about
# 0.1 s of CPU, while a command's only BLAS calls are two small dot products;
# OpenBLAS reads this once, when numpy first loads, and a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import approximants, bounds_continuous, bounds_discrete, montecarlo, stein
from .distributions import law_from_descriptor
from .errors import DegenerateParameterError, DomainError, NumericError, integer_in, positive_tol
from .maxima import KnSpec, size_biased_tie_law, tie_count_law

DEFAULT_SEED = 202608
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

TABLE1_MUS = (100, 300, 500, 700, 900)
TABLE1_NS = (10**5, 10**6, 10**7, 10**8, 10**9)
DASH = "---"

# grid shared by `verify` and the acceptance suite
VERIFY_PS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
VERIFY_NS = (5, 10, 20, 50)
MC_POINTS = ((0.2, 20), (0.3, 10), (0.5, 10))


class UsageError(Exception):
    """A malformed command line; ``main`` reports it and returns EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """argparse raising UsageError on a parse error, not exiting with 2 (EXIT_DEGENERATE)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def round3(x: float) -> str:
    """Three decimals, ties away from zero; the reference-table rendering."""
    from decimal import ROUND_HALF_UP, Decimal  # here, so that other commands skip its import

    d = Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    return format(d, "f")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _csv(rows, header) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(document: str, out_path):
    if not out_path:
        sys.stdout.write(document)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text):
        try:
            return integer_in(int(text), low)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}: {text!r}") from None
    return parse


def _descriptor_from_flags(args):
    if args.law == "geometric":
        if args.p is None and args.mu is None:
            raise UsageError("geometric law needs --p or --mu")
        if args.p is not None and args.mu is not None:
            raise UsageError("give only one of --p and --mu")
        p = 1.0 - args.mu / args.n if args.mu is not None else args.p
        return {"kind": "geometric", "p": p}
    if args.law == "tabulated":
        if not args.weights:
            raise UsageError("tabulated law needs --weights w1,w2,...")
        try:
            return {"kind": "tabulated", "weights": [float(w) for w in args.weights.split(",")]}
        except ValueError:
            raise UsageError(f"--weights must be numbers, got {args.weights!r}") from None
    if args.law == "gumbel":
        return {"kind": "gumbel"}
    if args.b is None:
        raise UsageError("uniform law needs --b")
    return {"kind": "uniform", "b": args.b}


def cmd_bound(args):
    """Evaluate one bound and emit its report."""
    method, n, ell, tol = args.method, args.n, args.ell, args.tol
    if method == "thm4":
        if args.eq is None or args.eq2 is None:
            raise UsageError("thm4 needs --eq and --eq2")
        spec = bounds_continuous.MixedBinomialSpec(n=n, ell=ell, eq=args.eq, eq2=args.eq2)
        report = bounds_continuous.negbin_bound_mixed(spec)
        law_desc = {"kind": "mixed-binomial", "eq": args.eq, "eq2": args.eq2}
    elif method == "thm3":
        if args.a is None:
            raise UsageError("thm3 needs --a")
        law_desc = _descriptor_from_flags(args)
        law_obj = law_from_descriptor(law_desc)
        spec = bounds_continuous.NearOrderSpec(law=law_obj, n=n, ell=ell, a=args.a)
        report = bounds_continuous.negbin_bound_near_order(spec, max(positive_tol(tol), 1e-11))
    else:
        law_desc = _descriptor_from_flags(args)
        law_obj = law_from_descriptor(law_desc)
        spec = KnSpec(law=law_obj, n=n)
        fn = {"thm1a": bounds_discrete.log_bound_singleton,
              "thm1b": bounds_discrete.log_bound_second_moment,
              "thm2": bounds_discrete.poisson_bound}[method]
        report = fn(spec, tol)

    doc = report.as_dict()
    doc["law"] = law_desc
    doc["n"] = n
    doc["bound_rounded"] = round3(report.bound)
    if args.fmt == "json":
        import json  # here, so that commands that write no JSON skip its import

        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        header = ["method", "bound", "bound_rounded", "informative", "truncation_error"]
        row = [doc["method"], doc["bound"], doc["bound_rounded"],
               doc["informative"], doc["truncation_error"]]
        for group in ("params", "moments"):
            for key in sorted(doc[group]):
                header.append(f"{group[:-1]}_{key}")
                row.append(doc[group][key])
        _emit(_csv([row], header), args.out)


def table1_cell(mu: int, n: int, tol: float = 1e-12):
    """Poisson-bound report for geometric data with p = 1 - mu/n."""
    law = law_from_descriptor({"kind": "geometric", "p": 1.0 - mu / n})
    return bounds_discrete.poisson_bound(KnSpec(law=law, n=n), tol)


def cmd_table1(args):
    """Poisson-bound grid over mu in {100..900}, n in {1e5..1e9}."""
    rows = []
    for mu in TABLE1_MUS:
        cells = []
        for n in TABLE1_NS:
            report = table1_cell(mu, n, args.tol)
            if args.raw:
                cells.append(report.bound)
            else:
                cells.append(DASH if report.bound > 1.0 else round3(report.bound))
        rows.append((mu, cells))
    if args.fmt == "json":
        import json

        doc = [{"mu": mu, "cells": {str(n): c for n, c in zip(TABLE1_NS, cells)}}
               for mu, cells in rows]
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        header = ["mu"] + [str(n) for n in TABLE1_NS]
        _emit(_csv([[mu] + cells for mu, cells in rows], header), args.out)


def _sweep(flag, first, last, count):
    """``count`` points from ``first`` to ``last``, the ends of ``--{flag}-min/max``.

    The points of ``numpy.linspace(first, last, count)``, bit for bit: i times
    the step plus ``first``, or (i / (count - 1)) times the span where the step
    underflows to 0, and ``last`` exactly at the end.
    """
    for end, value in (("min", first), ("max", last)):
        if not math.isfinite(value):  # the span would turn an infinite end into nan
            raise DomainError(f"--{flag}-{end} must be finite, got {value!r}")
    div, span = count - 1, last - first
    if div == 0:
        return [0.0 * span + first]
    step = span / div
    points = [(i / div * span if step == 0.0 else i * step) + first for i in range(count)]
    points[-1] = last
    return points


def cmd_figure(args):
    """Emit plot-ready CSV sweeps."""
    rows = []
    if args.name == "fig1":
        for p in _sweep("p", args.p_min, args.p_max, args.p_count):
            law = law_from_descriptor({"kind": "geometric", "p": float(p)})
            report = bounds_discrete.log_bound_singleton(KnSpec(law=law, n=args.n), args.tol)
            rows.append([float(p), report.bound])
        header = ["p", "thm1a_bound"]
    else:
        for a in _sweep("a", args.a_min, args.a_max, args.a_count):
            rows.append([float(a),
                         bounds_continuous.gumbel_max_bound(20, float(a)),
                         bounds_continuous.gumbel_max_bound(100, float(a))])
        header = ["a", "bound_n20", "bound_n100"]
    _emit(_csv(rows, header), args.out)


def _verify_checks(tol, seed, mc_samples):
    """Yield every check of ``verify``, in row order, as a record (label, bound,
    slack, distance, names) that holds when bound + slack >= distance.  ``slack`` is
    a Monte-Carlo row's sampling radius, 0 for a certified distance; ``names`` name
    the bound side and the distance, which a Monte-Carlo row prints first.
    """
    targets = {"thm1a": approximants.truncated_log, "thm1b": approximants.truncated_log,
               "thm2": approximants.truncated_poisson}
    # a target's certificate counts its entries' rounding, up to about 5e-15 here, so
    # its tolerance stops at 1e-13, well clear of it
    target_tol = max(tol / 10, 1e-13)
    for p in VERIFY_PS:
        for n in VERIFY_NS:
            spec = KnSpec(law=law_from_descriptor({"kind": "geometric", "p": p}), n=n)
            exact = tie_count_law(spec, tol)
            for report in bounds_discrete._reports(spec, tol):
                target = targets[report.method](*report.params.values(), target_tol)
                yield (f"discrete {report.method} p={p} n={n}", report.bound, 0.0,
                       approximants.tv_distance(exact, target).hi, ("bound", "tv_hi"))

    # the negative binomial carries an atom at zero that the logarithmic law
    # cannot match, so the valid comparison is the positive-part discrepancy
    for alpha in (0.2, 0.5, 0.8):
        ref = approximants.truncated_log(alpha, target_tol)
        for ell in (0.5, 1.0, 2.0):
            target = approximants.truncated_negbin(ell, alpha, target_tol)
            yield (f"log-vs-negbin alpha={alpha} ell={ell}",
                   stein.log_vs_negbin_bound(alpha, alpha, ell), 0.0,
                   approximants.positive_part_distance(target, ref).hi,
                   ("bound", "positive_part_hi"))

    continuous = [
        ({"kind": "uniform", "b": 1.0}, 8, 1, 0.05),
        ({"kind": "uniform", "b": 1.0}, 10, 2, 0.1),
        ({"kind": "gumbel"}, 10, 1, 0.3),
    ]
    for desc, n, ell, a in continuous:
        spec = bounds_continuous.NearOrderSpec(law=law_from_descriptor(desc), n=n, ell=ell, a=a)
        report = bounds_continuous.negbin_bound_near_order(spec, 1e-10)
        mixture = bounds_continuous.near_order_count_pmf(spec, 1e-10)
        target = approximants.truncated_negbin(ell, report.params["beta"], 1e-11)
        yield (f"continuous thm3 {desc['kind']} n={n} ell={ell} a={a}", report.bound, 0.0,
               approximants.tv_distance(mixture, target).hi, ("bound", "tv_hi"))

    if mc_samples > 0:
        for stream_id, (p, n) in enumerate(MC_POINTS):
            spec = KnSpec(law=law_from_descriptor({"kind": "geometric", "p": p}), n=n)
            report = bounds_discrete.log_bound_singleton(spec, tol)
            emp = montecarlo.empirical_law(
                "ties", spec, montecarlo.RngStream(seed=seed, stream_id=stream_id), mc_samples)
            target = approximants.truncated_log(report.params["alpha"], 1e-11)
            est, radius = montecarlo.empirical_tv(emp, target)
            yield (f"montecarlo thm1a p={p} n={n} samples={mc_samples}", report.bound, radius,
                   est, ("bound+radius", "tv_est"))


def cmd_verify(args):
    """Dominance sweeps: every bound against certified exact distances."""
    fault = 0.5 if args.inject_fault else 1.0
    lines, all_ok = [], True
    for label, bound, slack, distance, (bound_name, distance_name) in _verify_checks(
            args.tol, args.seed, args.mc_samples):
        bound = fault * bound + slack
        ok = bound >= distance
        all_ok = all_ok and ok
        sides = [f"{bound_name}={bound:.9f}", f"{distance_name}={distance:.9f}"]
        lines.append(" ".join(["PASS" if ok else "FAIL", label, *sides[::-1 if slack else 1]]))
    lines.append("VERIFY " + ("PASS" if all_ok else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else EXIT_VERIFY


def cmd_simulate(args):
    """Empirical pmf of a simulated count next to its exact law."""
    desc = _descriptor_from_flags(args)
    law_obj = law_from_descriptor(desc)
    continuous = desc["kind"] in ("gumbel", "uniform")
    kind = args.kind or ("near-order" if continuous else "ties")
    rng = montecarlo.RngStream(seed=args.seed, stream_id=0)

    # the exact law first: a numeric failure then ends the command before
    # sampling, and the sampler reuses the memory the law freed
    if kind == "near-order":
        if not continuous or args.a is None:
            raise UsageError("near-order simulation needs a continuous law and --a")
        spec = bounds_continuous.NearOrderSpec(law=law_obj, n=args.n, ell=args.ell, a=args.a)
        exact = bounds_continuous.near_order_count_pmf(spec, 1e-9)
    elif kind == "size-biased":
        spec = KnSpec(law=law_obj, n=args.n)
        exact = size_biased_tie_law(spec, args.tol)
    else:
        spec = KnSpec(law=law_obj, n=args.n)
        exact = tie_count_law(spec, args.tol)
    emp = montecarlo.empirical_law(kind, spec, rng, args.mc_samples)
    k_lo = min(emp.k_min, exact.k_min)
    k_hi = max(emp.k_min + len(emp.counts) - 1, exact.k_max)
    counts = approximants._dense(emp.k_min, emp.counts, k_lo, k_hi, 0)
    probs = approximants._dense(exact.k_min, exact.probs, k_lo, k_hi)
    rows = [[k, count, count / emp.sample_size, prob]
            for k, count, prob in zip(range(k_lo, k_hi + 1), counts, probs)]
    _emit(_csv(rows, ["k", "count", "frequency", "exact_pmf"]), args.out)


@functools.cache  # building the parser costs about 25 parses
def _parser(env_seed) -> argparse.ArgumentParser:
    """One subparser per command, a shared flag declared once; TIEBOUND_SEED is ``env_seed``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-12, help="target accuracy")
    common.add_argument("--out", help="write here instead of to stdout")
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--law", default="geometric",
                     choices=["geometric", "tabulated", "gumbel", "uniform"], help="data law")
    law.add_argument("--p", type=float, help="geometric parameter")
    law.add_argument("--mu", type=float, help="geometric mean scale: p = 1 - mu/n")
    law.add_argument("--n", type=int, required=True, help="sample size")
    law.add_argument("--ell", type=int, default=1, help="order-statistic rank")
    law.add_argument("--a", type=float, help="distance threshold (continuous)")
    law.add_argument("--b", type=float, help="uniform interval width")
    law.add_argument("--weights", help="tabulated weights, comma separated")
    seeded = argparse.ArgumentParser(add_help=False)
    # argparse passes a string default through the type, so a bad TIEBOUND_SEED is a usage error
    seeded.add_argument("--seed", type=_at_least(0), default=env_seed or DEFAULT_SEED,
                        help=f"Monte-Carlo seed (default: $TIEBOUND_SEED, else {DEFAULT_SEED})")

    parser = _Parser(prog="tiebound", allow_abbrev=False,
                     description="Tie counts at sample extremes and their certified error bounds.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *parents):
        sub = commands.add_parser(name, help=run.__doc__.split("\n")[0], allow_abbrev=False,
                                  parents=[*parents, common])
        sub.set_defaults(run=run)
        return sub

    bound = command("bound", cmd_bound, law)
    bound.add_argument("method", choices=["thm1a", "thm1b", "thm2", "thm3", "thm4"])
    bound.add_argument("--eq", type=float, help="E[Q] for thm4")
    bound.add_argument("--eq2", type=float, help="E[Q^2] for thm4")
    bound.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

    table1 = command("table1", cmd_table1)
    table1.add_argument("--raw", action="store_true",
                        help="emit full precision instead of the 3-decimal/dash rendering")
    table1.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    figure = command("figure", cmd_figure)
    figure.add_argument("name", choices=["fig1", "fig2"])
    figure.add_argument("--n", type=int, default=20, help="sample size (fig1)")
    figure.add_argument("--p-min", type=float, default=0.02, help="first p (fig1)")
    figure.add_argument("--p-max", type=float, default=0.5, help="last p (fig1)")
    figure.add_argument("--p-count", type=_at_least(1), default=25, help="points (fig1)")
    figure.add_argument("--a-min", type=float, default=0.0, help="first a (fig2)")
    figure.add_argument("--a-max", type=float, default=2.0, help="last a (fig2)")
    figure.add_argument("--a-count", type=_at_least(1), default=41, help="points (fig2)")

    verify = command("verify", cmd_verify, seeded)
    verify.add_argument("--mc-samples", type=_at_least(0), default=100_000,
                        help="0 skips the Monte-Carlo rows")
    # negative control: halve every bound before comparing
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    simulate = command("simulate", cmd_simulate, law, seeded)
    simulate.add_argument("--kind", choices=["ties", "size-biased", "near-order"],
                          help="default: ties for discrete laws, near-order for continuous")
    simulate.add_argument("--mc-samples", type=_at_least(1), default=100_000)
    return parser


def main(argv=None) -> int:
    """Run one command line; return its exit code (see the module docstring)."""
    try:
        args = _parser(os.environ.get("TIEBOUND_SEED")).parse_args(argv)
        return args.run(args) or 0
    except SystemExit as exc:  # only argparse raises it, after printing --help
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateParameterError as exc:
        print(f"degenerate parameter: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DomainError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        # what the failed computation did reach: TruncationError.best_bound,
        # IntegrationError.value and .error_estimate
        for name in ("best_bound", "value", "error_estimate"):
            if hasattr(exc, name):
                print(f"{name}: {getattr(exc, name)!r}", file=sys.stderr)
        return EXIT_NUMERIC


def run():
    """Console entry point: ``main`` on ``sys.argv``, after freezing the import heap."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()

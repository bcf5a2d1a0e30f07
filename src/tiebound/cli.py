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
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from decimal import ROUND_HALF_UP, Decimal

import click
import numpy as np

from . import approximants, bounds_continuous, bounds_discrete, montecarlo
from .distributions import law_from_descriptor
from .errors import DegenerateParameterError, DomainError, NumericError
from .maxima import KnSpec, size_biased_tie_law, tie_count_law
from .bounds_continuous import NearOrderSpec

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


def round3(x: float) -> str:
    """Three decimals, ties away from zero; the reference-table rendering."""
    d = Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    return format(d, "f")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(rows, header, out):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    out.write(buf.getvalue())


def _emit(document: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    else:
        click.echo(document, nl=False)


def _seed_option(seed):
    if seed is not None:
        return seed
    env = os.environ.get("TIEBOUND_SEED")
    return int(env) if env else DEFAULT_SEED


def _descriptor_from_flags(law, p, mu, n, weights, b):
    if law == "geometric":
        if p is None and mu is None:
            raise click.UsageError("geometric law needs --p or --mu")
        if p is not None and mu is not None:
            raise click.UsageError("give only one of --p and --mu")
        if mu is not None:
            p = 1.0 - mu / n
        return {"kind": "geometric", "p": p}
    if law == "tabulated":
        if not weights:
            raise click.UsageError("tabulated law needs --weights w1,w2,...")
        return {"kind": "tabulated", "weights": [float(w) for w in weights.split(",")]}
    if law == "gumbel":
        return {"kind": "gumbel"}
    if law == "uniform":
        if b is None:
            raise click.UsageError("uniform law needs --b")
        return {"kind": "uniform", "b": b}
    raise click.UsageError(f"unknown law {law!r}")


def _law_options(command):
    """The law and sample-size flags shared by ``bound`` and ``simulate``."""
    for option in reversed([
        click.option("--law", default="geometric", show_default=True,
                     type=click.Choice(["geometric", "tabulated", "gumbel", "uniform"])),
        click.option("--p", type=float, default=None, help="geometric parameter"),
        click.option("--mu", type=float, default=None, help="geometric mean scale: p = 1 - mu/n"),
        click.option("--n", type=int, required=True, help="sample size"),
        click.option("--ell", type=int, default=1, show_default=True, help="order-statistic rank"),
        click.option("--a", type=float, default=None, help="distance threshold (continuous)"),
        click.option("--b", type=float, default=None, help="uniform interval width"),
        click.option("--weights", type=str, default=None, help="tabulated weights, comma separated"),
    ]):
        command = option(command)
    return command


@click.group()
def cli():
    """Tie counts at sample extremes and their certified error bounds."""


@cli.command("bound")
@click.argument("method", type=click.Choice(["thm1a", "thm1b", "thm2", "thm3", "thm4"]))
@_law_options
@click.option("--eq", type=float, default=None, help="E[Q] for thm4")
@click.option("--eq2", type=float, default=None, help="E[Q^2] for thm4")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_bound(method, law, p, mu, n, ell, a, b, weights, eq, eq2, tol, fmt, out):
    """Evaluate one bound and emit its report."""
    if method == "thm4":
        if eq is None or eq2 is None:
            raise click.UsageError("thm4 needs --eq and --eq2")
        spec = bounds_continuous.MixedBinomialSpec(n=n, ell=ell, eq=eq, eq2=eq2)
        report = bounds_continuous.negbin_bound_mixed(spec)
        law_desc = {"kind": "mixed-binomial", "eq": eq, "eq2": eq2}
    elif method == "thm3":
        if a is None:
            raise click.UsageError("thm3 needs --a")
        law_desc = _descriptor_from_flags(law, p, mu, n, weights, b)
        law_obj = law_from_descriptor(law_desc)
        spec = NearOrderSpec(law=law_obj, n=n, ell=ell, a=a)
        report = bounds_continuous.negbin_bound_near_order(spec, max(tol, 1e-11))
    else:
        law_desc = _descriptor_from_flags(law, p, mu, n, weights, b)
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
    if fmt == "json":
        _emit(json.dumps(doc, sort_keys=True) + "\n", out)
    else:
        header = ["method", "bound", "bound_rounded", "informative", "truncation_error"]
        row = [doc["method"], doc["bound"], doc["bound_rounded"],
               doc["informative"], doc["truncation_error"]]
        for key in sorted(doc["params"]):
            header.append(f"param_{key}")
            row.append(doc["params"][key])
        for key in sorted(doc["moments"]):
            header.append(f"moment_{key}")
            row.append(doc["moments"][key])
        buf = io.StringIO()
        _write_csv([row], header, buf)
        _emit(buf.getvalue(), out)


def table1_cell(mu: int, n: int, tol: float = 1e-12):
    """Poisson-bound report for geometric data with p = 1 - mu/n."""
    law = law_from_descriptor({"kind": "geometric", "p": 1.0 - mu / n})
    return bounds_discrete.poisson_bound(KnSpec(law=law, n=n), tol)


@cli.command("table1")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--raw", is_flag=True, help="emit full precision instead of the 3-decimal/dash rendering")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_table1(tol, raw, fmt, out):
    """Poisson-bound grid over mu in {100..900}, n in {1e5..1e9}."""
    rows = []
    for mu in TABLE1_MUS:
        cells = []
        for n in TABLE1_NS:
            report = table1_cell(mu, n, tol)
            if raw:
                cells.append(report.bound)
            else:
                cells.append(DASH if report.bound > 1.0 else round3(report.bound))
        rows.append((mu, cells))
    if fmt == "json":
        doc = [{"mu": mu, "cells": {str(n): c for n, c in zip(TABLE1_NS, cells)}}
               for mu, cells in rows]
        _emit(json.dumps(doc, sort_keys=True) + "\n", out)
    else:
        header = ["mu"] + [str(n) for n in TABLE1_NS]
        buf = io.StringIO()
        _write_csv([[mu] + cells for mu, cells in rows], header, buf)
        _emit(buf.getvalue(), out)


@cli.command("figure")
@click.argument("name", type=click.Choice(["fig1", "fig2"]))
@click.option("--n", type=int, default=20, show_default=True, help="sample size (fig1)")
@click.option("--p-min", type=float, default=0.02, show_default=True)
@click.option("--p-max", type=float, default=0.5, show_default=True)
@click.option("--p-count", type=int, default=25, show_default=True)
@click.option("--a-min", type=float, default=0.0, show_default=True)
@click.option("--a-max", type=float, default=2.0, show_default=True)
@click.option("--a-count", type=int, default=41, show_default=True)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_figure(name, n, p_min, p_max, p_count, a_min, a_max, a_count, tol, out):
    """Emit plot-ready CSV sweeps."""
    buf = io.StringIO()
    if name == "fig1":
        rows = []
        for p in np.linspace(p_min, p_max, p_count):
            law = law_from_descriptor({"kind": "geometric", "p": float(p)})
            report = bounds_discrete.log_bound_singleton(KnSpec(law=law, n=n), tol)
            rows.append([float(p), report.bound])
        _write_csv(rows, ["p", "thm1a_bound"], buf)
    else:
        rows = []
        for a in np.linspace(a_min, a_max, a_count):
            rows.append([float(a),
                         bounds_continuous.gumbel_max_bound(20, float(a)),
                         bounds_continuous.gumbel_max_bound(100, float(a))])
        _write_csv(rows, ["a", "bound_n20", "bound_n100"], buf)
    _emit(buf.getvalue(), out)


def _verify_rows(tol, seed, mc_samples, inject_fault):
    """Yield (ok, line) pairs for every dominance check."""
    fault = 0.5 if inject_fault else 1.0

    for p in VERIFY_PS:
        for n in VERIFY_NS:
            law = law_from_descriptor({"kind": "geometric", "p": p})
            spec = KnSpec(law=law, n=n)
            exact = tie_count_law(spec, tol)
            checks = []
            r1 = bounds_discrete.log_bound_singleton(spec, tol)
            target = approximants.truncated_log(r1.params["alpha"], tol / 10)
            checks.append(("thm1a", r1.bound, approximants.tv_distance(exact, target).hi))
            if n >= 4:
                r2 = bounds_discrete.log_bound_second_moment(spec, tol)
                target = approximants.truncated_log(r2.params["beta"], tol / 10)
                checks.append(("thm1b", r2.bound, approximants.tv_distance(exact, target).hi))
            r3 = bounds_discrete.poisson_bound(spec, tol)
            target = approximants.truncated_poisson(r3.params["lambda"], tol / 10)
            checks.append(("thm2", r3.bound, approximants.tv_distance(exact, target).hi))
            for method, bound, tv_hi in checks:
                bound *= fault
                ok = bound >= tv_hi
                yield ok, (f"{'PASS' if ok else 'FAIL'} discrete {method} "
                           f"p={p} n={n} bound={bound:.9f} tv_hi={tv_hi:.9f}")

    # the negative binomial carries an atom at zero that the logarithmic law
    # cannot match, so the valid comparison is the positive-part discrepancy
    for alpha in (0.2, 0.5, 0.8):
        for ell in (0.5, 1.0, 2.0):
            bound = fault * (-math.log1p(-alpha) * ell)
            target = approximants.truncated_negbin(ell, alpha, tol / 10)
            ref = approximants.truncated_log(alpha, tol / 10)
            dist_hi = approximants.positive_part_distance(target, ref).hi
            ok = bound >= dist_hi
            yield ok, (f"{'PASS' if ok else 'FAIL'} log-vs-negbin alpha={alpha} "
                       f"ell={ell} bound={bound:.9f} positive_part_hi={dist_hi:.9f}")

    continuous = [
        ({"kind": "uniform", "b": 1.0}, 8, 1, 0.05),
        ({"kind": "uniform", "b": 1.0}, 10, 2, 0.1),
        ({"kind": "gumbel"}, 10, 1, 0.3),
    ]
    for desc, n, ell, a in continuous:
        spec = NearOrderSpec(law=law_from_descriptor(desc), n=n, ell=ell, a=a)
        report = bounds_continuous.negbin_bound_near_order(spec, 1e-10)
        mixture = bounds_continuous.near_order_count_pmf(spec, 1e-10)
        target = approximants.truncated_negbin(ell, report.params["beta"], 1e-11)
        tv_hi = approximants.tv_distance(mixture, target).hi
        bound = fault * report.bound
        ok = bound >= tv_hi
        yield ok, (f"{'PASS' if ok else 'FAIL'} continuous thm3 {desc['kind']} "
                   f"n={n} ell={ell} a={a} bound={bound:.9f} tv_hi={tv_hi:.9f}")

    if mc_samples > 0:
        for stream_id, (p, n) in enumerate(MC_POINTS):
            law = law_from_descriptor({"kind": "geometric", "p": p})
            spec = KnSpec(law=law, n=n)
            report = bounds_discrete.log_bound_singleton(spec, tol)
            samples = montecarlo.sample_tie_count(
                spec, montecarlo.RngStream(seed=seed, stream_id=stream_id),
                size=mc_samples)
            emp = montecarlo.EmpiricalPMF.from_samples(samples)
            target = approximants.truncated_log(report.params["alpha"], 1e-11)
            est, radius = montecarlo.empirical_tv(emp, target)
            bound = fault * report.bound
            ok = est <= bound + radius
            yield ok, (f"{'PASS' if ok else 'FAIL'} montecarlo thm1a p={p} n={n} "
                       f"samples={mc_samples} tv_est={est:.9f} "
                       f"bound+radius={bound + radius:.9f}")


@cli.command("verify")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--seed", type=int, default=None, help="Monte-Carlo seed (default: env or built-in)")
@click.option("--mc-samples", type=int, default=100_000, show_default=True,
              help="0 skips the Monte-Carlo rows")
@click.option("--inject-fault", is_flag=True, hidden=True,
              help="negative control: halve every bound before comparing")
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(tol, seed, mc_samples, inject_fault, out):
    """Dominance sweeps: every bound against certified exact distances."""
    seed = _seed_option(seed)
    lines = []
    all_ok = True
    for ok, line in _verify_rows(tol, seed, mc_samples, inject_fault):
        all_ok = all_ok and ok
        lines.append(line)
    lines.append("VERIFY " + ("PASS" if all_ok else "FAIL"))
    _emit("\n".join(lines) + "\n", out)
    if not all_ok:
        raise _VerificationFailure()


class _VerificationFailure(Exception):
    pass


@cli.command("simulate")
@_law_options
@click.option("--kind", type=click.Choice(["ties", "size-biased", "near-order"]),
              default=None, help="default: ties for discrete laws, near-order for continuous")
@click.option("--mc-samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_simulate(law, p, mu, n, ell, a, b, weights, kind, mc_samples, seed, tol, out):
    """Empirical pmf of a simulated count next to its exact law."""
    seed = _seed_option(seed)
    desc = _descriptor_from_flags(law, p, mu, n, weights, b)
    law_obj = law_from_descriptor(desc)
    continuous = desc["kind"] in ("gumbel", "uniform")
    if kind is None:
        kind = "near-order" if continuous else "ties"
    rng = montecarlo.RngStream(seed=seed, stream_id=0)

    # the exact law first: a numeric failure then ends the command before
    # sampling, and the sampler reuses the memory the law freed
    if kind == "near-order":
        if not continuous or a is None:
            raise click.UsageError("near-order simulation needs a continuous law and --a")
        spec = NearOrderSpec(law=law_obj, n=n, ell=ell, a=a)
        exact = bounds_continuous.near_order_count_pmf(spec, 1e-9)
        samples = montecarlo.sample_near_order_count(spec, rng, size=mc_samples)
    elif kind == "size-biased":
        spec = KnSpec(law=law_obj, n=n)
        exact = size_biased_tie_law(spec, tol)
        samples = montecarlo.sample_size_biased_ties(spec, rng, size=mc_samples)
    else:
        spec = KnSpec(law=law_obj, n=n)
        exact = tie_count_law(spec, tol)
        samples = montecarlo.sample_tie_count(spec, rng, size=mc_samples)
    emp = montecarlo.EmpiricalPMF.from_samples(samples)
    rows = []
    k_lo = min(emp.k_min, exact.k_min)
    k_hi = max(emp.k_min + emp.counts.size - 1, exact.k_max)
    for k in range(k_lo, k_hi + 1):
        idx = k - emp.k_min
        count = int(emp.counts[idx]) if 0 <= idx < emp.counts.size else 0
        rows.append([k, count, count / emp.sample_size, exact.prob(k)])
    buf = io.StringIO()
    _write_csv(rows, ["k", "count", "frequency", "exact_pmf"], buf)
    _emit(buf.getvalue(), out)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except click.exceptions.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except DegenerateParameterError as exc:
        click.echo(f"degenerate parameter: {exc}", err=True)
        return EXIT_DEGENERATE
    except DomainError as exc:
        click.echo(f"invalid configuration: {exc}", err=True)
        return EXIT_USAGE
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        # what the failed computation did reach: TruncationError.best_bound,
        # IntegrationError.value and .error_estimate
        for name in ("best_bound", "value", "error_estimate"):
            if hasattr(exc, name):
                click.echo(f"{name}: {getattr(exc, name)!r}", err=True)
        return EXIT_NUMERIC
    except _VerificationFailure:
        return EXIT_VERIFY
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Diff the stdout of deterministic ``tiebound`` CLI commands between two source trees.

Usage::

    python tools/cli_diff.py SRC_A SRC_B

Each SRC is a directory that holds the ``tiebound`` package, such as the
``src`` of two checkouts.  Every command in ``COMMANDS`` runs in a fresh
interpreter under each tree, with ``TIEBOUND_SEED`` unset so the default
seed applies.  Prints one line per command, and under a command whose stdout
differs the unified diff and the largest relative change over the numbers of
the two outputs.  Exits 1 if any stdout or exit code differs, or if a
command prints a ``Traceback`` under SRC_B, else 0.  A ``Traceback`` under
SRC_A, the base, is reported but does not fail the run:
an uncaught exception also exits 1 with empty stdout, so only stderr tells
a crash from a clean error.
"""

from __future__ import annotations

import difflib
import math
import os
import re
import subprocess
import sys

COMMANDS = [
    ["table1"],
    ["table1", "--raw"],
    ["figure", "fig1"],
    ["figure", "fig2"],
    ["verify"],
    ["verify", "--seed", "1"],
    ["verify", "--seed", "3"],
    ["verify", "--mc-samples", "0"],
    ["verify", "--mc-samples", "0", "--tol", "1e-6"],
    # the target laws at their tolerance's floor, 1e-13, and below it
    ["verify", "--mc-samples", "0", "--tol", "1e-14"],
    ["verify", "--mc-samples", "0", "--tol", "1e-16"],
    # the negative control halves every bound, Monte-Carlo rows included: FAIL rows and exit 4
    ["verify", "--inject-fault", "--mc-samples", "2000"],
    # the verify flags: none added
    ["verify", "--help"],
    ["bound", "thm1a", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm1b", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm2", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm2", "--mu", "300", "--n", "1000000000"],
    # geometric tie-count values in closed form, where the series would need 2e9 and
    # 3e6 terms; and a point just on the series side of the closed form's border
    ["bound", "thm1a", "--p", "1e-9", "--n", "1000000000"],
    ["bound", "thm1b", "--p", "1e-9", "--n", "1000000000"],
    ["bound", "thm2", "--p", "1e-9", "--n", "1000000000"],
    ["bound", "thm2", "--p", "1e-5", "--n", "1000000"],
    ["bound", "thm2", "--p", "0.2", "--n", "20"],
    ["bound", "thm1a", "--law", "tabulated", "--weights", "0.2,0.3,0.5", "--n", "7"],
    # a point mass: Var(K) = 0, whose radicand rounds away from 0 in thm2
    ["bound", "thm2", "--law", "tabulated", "--weights", "1.0", "--n", "5"],
    # the discrete bounds at the smallest n each takes and at a `verify` grid point, which
    # `verify` prints to 9 decimals only
    ["bound", "thm1a", "--p", "0.5", "--n", "2"],
    ["bound", "thm2", "--p", "0.5", "--n", "3"],
    ["bound", "thm1b", "--p", "0.05", "--n", "4"],
    ["bound", "thm1a", "--p", "0.3", "--n", "10"],
    ["bound", "thm1b", "--p", "0.3", "--n", "10"],
    ["bound", "thm2", "--p", "0.3", "--n", "10"],
    # thm1a's series certificate at a coarse tolerance, and the bound across p at n = 50
    ["bound", "thm1a", "--p", "0.38", "--n", "20", "--tol", "1e-6"],
    # thm1a's series certificate at a fig1 series point, and at a point of the closed form
    ["bound", "thm1a", "--p", "0.2", "--n", "20"],
    ["bound", "thm1a", "--p", "0.05", "--n", "10"],
    ["figure", "fig1", "--n", "50"],
    ["simulate", "--p", "0.01", "--n", "10000"],
    # histograms of a geometric law drawn without numpy, at two sizes, and a closed-form
    # law at a point whose mixture would need more maxima than its cap
    ["simulate", "--p", "0.01", "--n", "10000", "--mc-samples", "2000"],
    ["simulate", "--p", "0.01", "--n", "10000", "--mc-samples", "100000"],
    ["simulate", "--p", "1e-5", "--n", "100", "--mc-samples", "1000"],
    ["simulate", "--kind", "size-biased", "--p", "0.2", "--n", "20"],
    ["simulate", "--kind", "size-biased", "--p", "0.001", "--n", "100000"],
    # Z of the argmax law in closed form, and its quantile table of 459k entries
    ["simulate", "--kind", "size-biased", "--p", "1e-4", "--n", "10000", "--mc-samples", "2000"],
    ["simulate", "--law", "tabulated", "--weights", "0.5,0.5", "--n", "1000"],
    # the argmax quantile table of a finitely supported law
    ["simulate", "--kind", "size-biased", "--law", "tabulated", "--weights", "0.2,0.3,0.5",
     "--n", "50"],
    # exact laws built entry by entry: K* of the closed form, K of a law without one, and a
    # point whose entries miss their certificate, so that the mixture serves it
    ["simulate", "--kind", "size-biased", "--p", "0.01", "--n", "10000", "--mc-samples", "2000"],
    ["simulate", "--law", "tabulated", "--weights", "0.2,0.3,0.5", "--n", "7",
     "--mc-samples", "2000"],
    ["simulate", "--p", "0.999", "--n", "1000", "--mc-samples", "2000"],
    ["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "0.3"],
    ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3", "--a", "0.05"],
    ["bound", "thm3", "--law", "gumbel", "--n", "1000000", "--a", "0.3"],
    # closed-form near-order moments: the Gumbel law's at rank 3 of n = 1e9, and the uniform
    # law's binomial tails at (1e4, 7)
    ["bound", "thm3", "--law", "gumbel", "--n", "1000000000", "--ell", "3", "--a", "0.3"],
    ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "10000", "--ell", "7", "--a", "0.001"],
    # closed-form thm3 moments at a central rank of n = 1e9, whose cost must not grow with
    # the rank, and at a distance so small that x - a would lose its digits
    ["bound", "thm3", "--law", "gumbel", "--n", "1000000000", "--ell", "500000000", "--a", "0.3"],
    ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "1000000000", "--ell", "500000000",
     "--a", "0.3"],
    ["bound", "thm3", "--law", "gumbel", "--n", "100", "--a", "1e-9"],
    # a float's logcdf feeds the quadrature's panel edges here
    ["bound", "thm3", "--law", "uniform", "--b", "1", "--n", "2", "--ell", "1", "--a", "0.5"],
    ["bound", "thm4", "--n", "10", "--ell", "2", "--eq", "0.1", "--eq2", "0.012"],
    ["simulate", "--law", "gumbel", "--n", "100", "--a", "0.3"],
    ["simulate", "--law", "uniform", "--b", "1", "--n", "200", "--ell", "3", "--a", "0.05"],
    # a long near-order row, 20k entries about a central rank
    ["simulate", "--law", "uniform", "--b", "1", "--n", "100000", "--ell", "50000", "--a", "0.3",
     "--mc-samples", "2000"],
    # many draws over few outcomes: the counts must not depend on how the draws are held
    ["simulate", "--p", "0.2", "--n", "20", "--mc-samples", "1000000"],
    ["simulate", "--kind", "size-biased", "--p", "0.2", "--n", "20", "--mc-samples", "200000"],
    ["simulate", "--law", "gumbel", "--n", "100", "--a", "0.3", "--mc-samples", "200000"],
    # near-order draws against a quadrature law, and at rank n, where log F(X) sums n
    # spacings and the count is Bin(0, r)
    ["simulate", "--law", "gumbel", "--n", "20", "--ell", "2", "--a", "0.5",
     "--mc-samples", "2000"],
    ["simulate", "--law", "uniform", "--b", "1", "--n", "10", "--ell", "10", "--a", "0.3",
     "--mc-samples", "1000"],
    # near-order draws at the last rank of the spacings, montecarlo._SPACINGS = 16, and at
    # the first rank of the Beta variate
    ["simulate", "--law", "gumbel", "--n", "100", "--ell", "16", "--a", "0.3",
     "--mc-samples", "2000"],
    ["simulate", "--law", "gumbel", "--n", "100", "--ell", "17", "--a", "0.3",
     "--mc-samples", "2000"],
    # a law of the wrong kind for the command: a one-line error and exit 1
    ["bound", "thm1a", "--law", "gumbel", "--n", "10"],
    ["bound", "thm2", "--law", "uniform", "--b", "1", "--n", "10"],
    ["simulate", "--law", "gumbel", "--kind", "ties", "--n", "10"],
    ["bound", "thm3", "--law", "geometric", "--p", "0.2", "--n", "10", "--a", "0.1"],
    # an infinite tolerance or a NaN weight: a one-line error and exit 1
    ["verify", "--tol", "inf", "--mc-samples", "0"],
    ["simulate", "--p", "0.2", "--n", "10", "--tol", "inf", "--mc-samples", "10"],
    ["bound", "thm1a", "--law", "tabulated", "--weights", "nan", "--n", "5"],
    # a NaN second moment or an infinite threshold: a one-line error and exit 1
    ["bound", "thm4", "--n", "10", "--ell", "2", "--eq", "0.1", "--eq2", "nan"],
    ["bound", "thm3", "--law", "gumbel", "--n", "10", "--a", "inf"],
]


# a number standing alone: not a digit of a name such as "thm1a" or "EK2_factorial"
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|Infinity|inf|NaN|nan)"
                     r"(?![\w.])")


def _change(x: float, y: float) -> float:
    """|y - x| / |x|: 0 where both are the same value or NaN, inf where x is 0
    and y is not, or where one is NaN or infinite and the other is not."""
    if x == y or x != x and y != y:
        return 0.0
    change = abs(y - x) / abs(x) if x else math.inf
    return change if change == change else math.inf


def largest_change(out_a: str, out_b: str) -> str:
    """The largest relative change over the numbers of two outputs, paired in
    order, or a note that their counts differ."""
    a, b = ([float(x) for x in _NUMBER.findall(out)] for out in (out_a, out_b))
    if len(a) != len(b):
        return f"the outputs hold {len(a)} and {len(b)} numbers"
    worst = max(map(_change, a, b), default=0.0)
    return f"largest relative change {worst:.3g} over {len(a)} numbers"


def run(src: str, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``python -m tiebound.cli argv`` with ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "TIEBOUND_SEED"}
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-m", "tiebound.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = crashed = 0
    for command in COMMANDS:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = (run(src, command) for src in args)
        same = code_a == code_b and out_a == out_b
        differ += not same
        crashed += "Traceback" in err_b
        crash = "".join(f"  Traceback under {src}" for src, err in zip(args, (err_a, err_b))
                        if "Traceback" in err)
        print(f"{'same' if same else 'DIFFERS'}  (exit {code_a}/{code_b})  "
              f"{' '.join(command)}{crash}")
        if not same:
            sys.stdout.writelines(difflib.unified_diff(
                out_a.splitlines(True), out_b.splitlines(True), args[0], args[1], n=1))
            print(f"  {largest_change(out_a, out_b)}")
    print(f"{differ} of {len(COMMANDS)} commands differ, "
          f"{crashed} print a Traceback under {args[1]}")
    return 1 if differ or crashed else 0


if __name__ == "__main__":
    sys.exit(main())

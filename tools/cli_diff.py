"""Diff the stdout of deterministic ``tiebound`` CLI commands between two source trees.

Usage::

    python tools/cli_diff.py SRC_A SRC_B

Each SRC is a directory that holds the ``tiebound`` package, such as the
``src`` of two checkouts.  Every command in ``COMMANDS`` runs in a fresh
interpreter under each tree, with ``TIEBOUND_SEED`` unset so the default
seed applies.  Prints one line per command and exits 1 if any stdout or exit
code differs, else 0.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys

COMMANDS = [
    ["table1"],
    ["table1", "--raw"],
    ["figure", "fig1"],
    ["figure", "fig2"],
    ["verify"],
    ["verify", "--mc-samples", "0"],
    ["bound", "thm1a", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm1b", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm2", "--p", "1e-3", "--n", "100000"],
    ["bound", "thm2", "--mu", "300", "--n", "1000000000"],
    ["bound", "thm1a", "--law", "tabulated", "--weights", "0.2,0.3,0.5", "--n", "7"],
    ["simulate", "--p", "0.01", "--n", "10000"],
    ["simulate", "--kind", "size-biased", "--p", "0.2", "--n", "20"],
    ["simulate", "--kind", "size-biased", "--p", "0.001", "--n", "100000"],
    ["simulate", "--law", "tabulated", "--weights", "0.5,0.5", "--n", "1000"],
]


def run(src: str, argv: list) -> tuple:
    """(exit code, stdout) of ``python -m tiebound.cli argv`` with ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k != "TIEBOUND_SEED"}
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-m", "tiebound.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = 0
    for command in COMMANDS:
        (code_a, out_a), (code_b, out_b) = run(args[0], command), run(args[1], command)
        same = code_a == code_b and out_a == out_b
        differ += not same
        print(f"{'same' if same else 'DIFFERS'}  (exit {code_a}/{code_b})  {' '.join(command)}")
        if not same:
            sys.stdout.writelines(difflib.unified_diff(
                out_a.splitlines(True), out_b.splitlines(True), args[0], args[1], n=1))
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the reference output of every benchmark command to ``benchmarks/refs``.

Run from the root of a checkout at the commit whose outputs are the
reference::

    python3 benchmarks/make_refs.py

Monte-Carlo commands run with seed 0; their checks use only the seed-free
parts of the reference (the exact pmf, the verify row set and the
deterministic rows).
"""

import sys

from run import OUT, REFS, WORKLOADS, command_argv, run_child


def main() -> int:
    REFS.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    for commands in WORKLOADS.values():
        for cmd_id, template in commands:
            code, out, err, _, _ = run_child(
                ["-m", "tiebound.cli", *command_argv(template, 0)], timeout=600.0)
            if code != 0:
                print(f"{cmd_id}: exit code {code}\n{err}", file=sys.stderr)
                return 1
            (REFS / f"{cmd_id}.out").write_text(out)
            print(f"wrote {cmd_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

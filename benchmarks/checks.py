"""Output checks for the benchmark's CLI commands.

Each command's standard output is compared with a reference output stored
under ``benchmarks/refs`` (written by ``make_refs.py`` at the seed commit).
A check returns ``None`` when the output is correct and a one-line reason
when it is not.  The Monte-Carlo parts of ``simulate`` and ``verify`` depend
on the seed, so they are checked statistically, with a radius this module
computes itself, rather than against the stored numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Numbers in `bound` JSON and `figure` CSVs: |x - ref| <= REL_TOL * max(1, |ref|).
REL_TOL = 1e-9
# Numbers in deterministic `verify` rows and the `exact_pmf` column of `simulate`.
VERIFY_TOL = 2e-9
PMF_TOL = 1e-9
# Chance that a correct sampler fails the frequency check of one `simulate` call.
MC_DELTA = 1e-6


def _close(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _compare_json(out, ref, path="$"):
    if isinstance(ref, dict):
        if not isinstance(out, dict) or sorted(out) != sorted(ref):
            return f"{path}: keys differ"
        for key in ref:
            bad = _compare_json(out[key], ref[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return None if out == ref else f"{path}: {out!r} != {ref!r}"
    if isinstance(ref, (int, float)):
        if isinstance(out, bool) or not isinstance(out, (int, float)):
            return f"{path}: {out!r} is not a number"
        return None if _close(out, ref, REL_TOL) else f"{path}: {out!r} != {ref!r}"
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: lists differ in length"
        for i, (o, r) in enumerate(zip(out, ref)):
            bad = _compare_json(o, r, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return f"{path}: unexpected reference type {type(ref).__name__}"


def check_bound(out: str, ref: str):
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    return _compare_json(doc, json.loads(ref))


def _csv_rows(text: str):
    return list(csv.reader(io.StringIO(text)))


def check_figure(out: str, ref: str):
    rows, ref_rows = _csv_rows(out), _csv_rows(ref)
    if not rows or rows[0] != ref_rows[0]:
        return "CSV header differs"
    if len(rows) != len(ref_rows):
        return f"{len(rows) - 1} data rows, expected {len(ref_rows) - 1}"
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if len(row) != len(ref_row):
            return f"row {i}: {len(row)} cells, expected {len(ref_row)}"
        for cell, ref_cell in zip(row, ref_row):
            try:
                value, ref_value = float(cell), float(ref_cell)
            except ValueError:
                return f"row {i}: {cell!r} is not a number"
            if not _close(value, ref_value, REL_TOL):
                return f"row {i}: {cell} != {ref_cell}"
    return None


def check_table1(out: str, ref: str):
    return None if out == ref else "table1 output differs from the reference"


def _verify_row(line: str):
    """Split one verify row into (status, key, numbers).

    ``key`` holds the words and parameter fields that name the check;
    ``numbers`` maps each computed field (bound, tv_hi, ...) to its value.
    """
    status, *tokens = line.split()
    words, params, numbers = [], [], {}
    for token in tokens:
        name, eq, value = token.partition("=")
        if not eq:
            words.append(token)
        elif name in ("p", "n", "ell", "alpha", "a", "samples"):
            params.append(token)
        else:
            numbers[name] = float(value)
    return status, tuple(words + params), numbers


def check_verify(out: str, ref: str):
    lines, ref_lines = out.splitlines(), ref.splitlines()
    if not lines or lines[-1] != "VERIFY PASS":
        return "verify did not end with VERIFY PASS"
    rows = [_verify_row(line) for line in lines[:-1]]
    ref_rows = {key: numbers for _, key, numbers in map(_verify_row, ref_lines[:-1])}
    if sorted(key for _, key, _ in rows) != sorted(ref_rows):
        return "verify row set differs from the reference"
    for status, key, numbers in rows:
        if status != "PASS":
            return f"{status} {' '.join(key)}"
        if key[0] == "montecarlo":
            # seed-dependent: recheck the printed inequality instead
            if not numbers["tv_est"] <= numbers["bound+radius"]:
                return f"{' '.join(key)}: tv_est above bound+radius"
            continue
        ref_numbers = ref_rows[key]
        if sorted(numbers) != sorted(ref_numbers):
            return f"{' '.join(key)}: fields differ"
        for name, value in numbers.items():
            if abs(value - ref_numbers[name]) > VERIFY_TOL:
                return f"{' '.join(key)}: {name}={value} != {ref_numbers[name]}"
    return None


def tv_radius(categories: int, samples: int, delta: float = MC_DELTA) -> float:
    """Half-L1 deviation radius of an empirical pmf over ``categories`` cells.

    Bretagnolle-Huber-Carol: P(||f - p||_1 >= eps) <= 2**d exp(-N eps**2 / 2),
    so half the L1 distance exceeds this radius with probability <= delta.
    """
    return 0.5 * math.sqrt(2.0 * (categories * math.log(2.0) + math.log(1.0 / delta))
                           / samples)


def check_simulate(out: str, ref: str, samples: int):
    rows, ref_rows = _csv_rows(out), _csv_rows(ref)
    if not rows or rows[0] != ["k", "count", "frequency", "exact_pmf"]:
        return "CSV header differs"
    # the exact law is fixed by the reference; the categories are its
    # support plus one overflow cell, chosen before looking at the samples
    ref_pmf = {int(r[0]): float(r[3]) for r in ref_rows[1:] if float(r[3]) > 0.0}
    counts, exact = {}, {}
    try:
        for k, count, freq, pmf in rows[1:]:
            k, count = int(k), int(count)
            counts[k], exact[k] = count, float(pmf)
            if abs(float(freq) - count / samples) > 1e-12:
                return f"k={k}: frequency {freq} != count/{samples}"
    except ValueError:
        return "malformed simulate row"
    if sum(counts.values()) != samples:
        return f"counts sum to {sum(counts.values())}, expected {samples}"
    for k, ref_value in ref_pmf.items():
        if k not in exact or abs(exact[k] - ref_value) > PMF_TOL:
            return f"k={k}: exact_pmf {exact.get(k)} != {ref_value}"
    for k, value in exact.items():
        if k not in ref_pmf and value > PMF_TOL:
            return f"k={k}: exact_pmf {value} outside the reference support"
    missing = max(0.0, 1.0 - math.fsum(ref_pmf.values()))
    l1 = math.fsum(abs(counts.get(k, 0) / samples - p) for k, p in ref_pmf.items())
    overflow = sum(c for k, c in counts.items() if k not in ref_pmf) / samples
    tv = 0.5 * (l1 + abs(overflow - missing))
    radius = tv_radius(len(ref_pmf) + 1, samples)
    if tv > radius:
        return f"empirical TV {tv:.6f} exceeds the radius {radius:.6f}"
    return None


def check_output(argv, out: str, ref: str):
    """Check one command's output; ``argv`` is the CLI argument list."""
    command = argv[0]
    if command == "bound":
        return check_bound(out, ref)
    if command == "figure":
        return check_figure(out, ref)
    if command == "table1":
        return check_table1(out, ref)
    if command == "verify":
        return check_verify(out, ref)
    if command == "simulate":
        return check_simulate(out, ref, int(argv[argv.index("--mc-samples") + 1]))
    raise ValueError(f"no check for command {command!r}")

"""The verdicts of ``tools/cli_diff.py``, the byte-stability guard of the CLI."""

import importlib.util
import pathlib
import shutil

import pytest

import tiebound

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"
PACKAGE = pathlib.Path(tiebound.__file__).resolve().parent


@pytest.fixture
def cli_diff():
    """The tool as a fresh module, narrowed to two cheap commands; ``table1`` prints dashes."""
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.COMMANDS = [["table1"], ["bound", "thm2", "--p", "0.2", "--n", "20"]]
    return module


def _copy(tmp_path, name, old, new):
    """A source tree holding this ``tiebound`` with ``old`` replaced by ``new`` in cli.py."""
    src = tmp_path / name
    shutil.copytree(PACKAGE, src / "tiebound", ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "tiebound" / "cli.py"
    text = cli.read_text()
    assert old in text
    cli.write_text(text.replace(old, new, 1))
    return str(src)


def test_a_tree_against_itself_is_the_same(cli_diff, capsys):
    src = str(PACKAGE.parent)
    assert cli_diff.main([src, src]) == 0
    assert capsys.readouterr().out.endswith("0 of 2 commands differ, 0 print a Traceback "
                                            f"under {src}\n")


def test_a_changed_output_differs(cli_diff, capsys, tmp_path):
    changed = _copy(tmp_path, "dash", 'DASH = "---"', 'DASH = "-x-"')
    assert cli_diff.main([str(PACKAGE.parent), changed]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS  (exit 0/0)  table1\n" in out
    assert "same  (exit 0/0)  bound thm2" in out
    assert "1 of 2 commands differ" in out


def test_a_traceback_under_the_new_tree_fails_the_run(cli_diff, capsys, tmp_path):
    # the same crash under both trees: outputs and exit codes agree, only stderr tells
    broken = _copy(tmp_path, "broken", "    rows = []\n    for mu in TABLE1_MUS:",
                   "    raise RuntimeError('broken')\n    rows = []\n    for mu in TABLE1_MUS:")
    assert cli_diff.main([broken, broken]) == 1
    out = capsys.readouterr().out
    assert f"same  (exit 1/1)  table1  Traceback under {broken}  Traceback under {broken}\n" in out
    assert out.endswith(f"0 of 2 commands differ, 1 print a Traceback under {broken}\n")


def test_a_changed_number_reports_its_largest_relative_change(cli_diff, capsys, tmp_path):
    changed = _copy(tmp_path, "n", 'doc["n"] = n\n', 'doc["n"] = n * 1.25\n')
    assert cli_diff.main([str(PACKAGE.parent), changed]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS  (exit 0/0)  bound thm2 --p 0.2 --n 20\n" in out
    assert "  largest relative change 0.25 over 9 numbers\n" in out


def test_the_largest_change_pairs_numbers_in_order(cli_diff):
    base = '{"bound": 2.0, "method": "thm1a", "n": 20, "e": [1e-300, Infinity, NaN, 0.0]}'
    assert cli_diff.largest_change(base, base) == "largest relative change 0 over 6 numbers"
    assert cli_diff.largest_change(base, base.replace("2.0", "2.5")) == (
        "largest relative change 0.25 over 6 numbers")
    assert cli_diff.largest_change(base, base.replace("0.0]", "1e-300]")) == (
        "largest relative change inf over 6 numbers")
    assert cli_diff.largest_change(base, base.replace("NaN", "1.0")) == (
        "largest relative change inf over 6 numbers")
    assert cli_diff.largest_change(base, base.replace(", 0.0", "")) == (
        "the outputs hold 6 and 5 numbers")

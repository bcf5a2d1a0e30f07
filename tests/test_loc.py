"""The counts of ``tools/loc.py``, the line counter of the package's modules."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

X = 1
"""X's attribute docstring."""


# a comment line
class Box:
    """Class docstring."""

    size: int = 2
    """Attribute docstring in a class."""

    def area(self):
        """Function docstring."""
        text = """a string over
two lines"""
        "a string statement after code, not a docstring"
        return self.size * math.pi + len(text)
'''


@pytest.fixture
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_code_line_holds_a_token_outside_comments_and_docstrings(loc):
    # import, X = 1, class, size, def, text (two lines), the string statement, return
    assert loc.count(SAMPLE) == (22, 9)


def test_prints_each_module_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("\n# only a comment\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "22", "9"], ["b.py", "2", "0"],
                    ["total", "24", "9"]]

"""tools/code_lines.py: the code-line count that the size of src/ is measured by."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Eight code lines: the import, the class line, size = 1, NOTE, the def line,
# both lines of the two-line statement, and the return. The docstrings of the
# module, the class and the function, the comments and the blank lines are
# not code; a string that is not the first statement of its body is.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

# a comment on its own line


class Box:
    """Class docstring."""

    size = 1


NOTE = """a string, but not a docstring"""


def area(w, h):
    """Function docstring
    over two lines.
    """
    total = (w
             * h)
    return total
'''


def test_fixture_count():
    assert code_lines.code_lines(FIXTURE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["8", "1", "9"]

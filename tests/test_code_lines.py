import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not make a line a comment

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return math.pi * self.size**2, text


def loose():
    return Box().area()
'''


def test_code_lines_counts_a_fixture(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, class, size, def area, text (two lines), return, def loose, return
    assert tool.code_lines(FIXTURE) == 9
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     9  a.py", "     1  b.py", "    10  total", ""]

"""tools/count_lines.py on a module whose line counts are known."""
import ast
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _TOOL)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# Docstrings: lines 1-3, 7, 11-13 and 16 (eight).  Comment or blank: lines
# 4, 5, 9, 14 and 21 (five).  Code: the other nine, with both lines of the
# multi-line string that is not a docstring and the line with a trailing
# comment.
SAMPLE = '''"""A module docstring
over three
lines."""
# a comment

class Box:
    """One line."""
    size = 1

    def method(self):
        """Nested function,
        three lines.
        """
        # another comment
        def inner():
            """Inner."""
            return 1
        text = """not a
        docstring"""
        return inner() + len(text)

x = Box()  # a trailing comment is code
'''


def test_counts_of_a_known_module():
    assert len(SAMPLE.splitlines()) == 22
    assert count_lines.docstring_lines(ast.parse(SAMPLE)) == {
        1, 2, 3, 7, 11, 12, 13, 16}
    assert count_lines.count(SAMPLE) == (9, 8, 5)


def test_main_prints_each_file_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("y = 2\n\n")
    assert count_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["9", "8", "5", "22", str(tmp_path / "a.py")]
    assert lines[2].split() == ["1", "0", "1", "2", str(tmp_path / "b.py")]
    assert lines[-1].split() == ["10", "8", "6", "24", "total"]

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 7 code lines: the import, the 3 lines of TABLE's string, the def and the
# 2-line call.  Docstrings, comments and blank lines count for nothing.
MODULE = '''"""A module docstring,
on two lines."""
# a comment

import os

TABLE = """
1 2
""".split()


def join(x):
    """A function docstring."""
    return os.path.join(x,
                        "y")  # a trailing comment
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert src_lines.code_lines(MODULE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["7", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["8", "total"],
    ]

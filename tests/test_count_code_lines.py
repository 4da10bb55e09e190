import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "count_code_lines", ROOT / "tools" / "count_code_lines.py"
)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """One line."""
    y = (x +
         1)
    s = """not a docstring,
    since it is assigned"""
    return math.floor(y)


class C:
    """Class docstring."""

    def g(self):
        "a plain string is a docstring too"
        pass
'''


def test_synthetic_source():
    # import, def f, y over two lines, s over two lines, return, class C,
    # def g, pass
    assert count_code_lines.count_code_lines(SOURCE) == 10


def test_main_reports_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""doc"""\nz = 3\n')
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["3", "total"],
    ]

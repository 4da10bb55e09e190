import importlib.util
import os
import pathlib
import subprocess

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


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_base_compares_with_a_revision(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "kept.py").write_text("x = 1\n")
    (pkg / "gone.py").write_text("y = 2\nz = 3\n")
    (pkg / "notes.txt").write_text("not python\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (pkg / "kept.py").write_text('"""doc"""\nx = 1\ny = 2\nz = 3\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("w = 0\n")
    monkeypatch.chdir(tmp_path)
    assert count_code_lines.main(["--base", "HEAD", "src/pkg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", "0", "-2", os.path.join("src", "pkg", "gone.py")],
        ["1", "3", "+2", os.path.join("src", "pkg", "kept.py")],
        ["0", "1", "+1", os.path.join("src", "pkg", "new.py")],
        ["3", "4", "+1", "total"],
    ]


def test_base_must_be_a_revision(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    _git(tmp_path, "init", "-q")
    monkeypatch.chdir(tmp_path)
    assert count_code_lines.main(["--base", "HEAD", "a.py"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a git revision" in captured.err

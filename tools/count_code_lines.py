"""Count the code lines of Python sources: lines holding a token other than
a comment, with the docstrings of modules, classes and functions left out.

    python3 tools/count_code_lines.py [--base REV] [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is
``src/wproj``.  Prints one line per module and then the total.

With ``--base REV``, run inside a git checkout, each line gives a module's
count at the git revision REV (0 if the module is absent there), its count
in the working tree (0 if it is absent here), the difference and its path
relative to the current directory, and the last line gives the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _tree_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def _compare(rev: str, paths: list[str]) -> int:
    """Print the base, working-tree and difference columns; see the module
    docstring."""
    if _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode:
        print(f"error: {rev!r} is not a git revision", file=sys.stderr)
        return 2
    names = {os.path.relpath(p) for p in _tree_files(paths) if p.exists()}
    for arg in paths:
        listed = _git("ls-tree", "-r", "--name-only", rev, "--", os.path.relpath(arg))
        names.update(n for n in listed.stdout.splitlines() if n.endswith(".py"))
    base_total = tree_total = 0
    for name in sorted(names):
        shown = _git("show", f"{rev}:./{name}")
        base = count_code_lines(shown.stdout) if shown.returncode == 0 else 0
        path = Path(name)
        tree = count_code_lines(path.read_text()) if path.exists() else 0
        base_total += base
        tree_total += tree
        print(f"{base:6d} {tree:6d} {tree - base:+6d}  {name}")
    print(f"{base_total:6d} {tree_total:6d} {tree_total - base_total:+6d}  total")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    parser.add_argument("paths", nargs="*", metavar="PATH", default=["src/wproj"])
    parser.add_argument(
        "--base",
        metavar="REV",
        help="also count each module at the git revision REV and print the difference",
    )
    args = parser.parse_args(argv)
    if args.base is not None:
        return _compare(args.base, args.paths)
    total = 0
    for path in _tree_files(args.paths):
        n = count_code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

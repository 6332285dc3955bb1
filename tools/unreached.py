"""Print path:line for each statement of the .py files under a directory
that no test runs: pytest runs in this process under sys.settrace and
threading.settrace.  Docstrings and global/nonlocal are skipped; a
decorated definition starts at its first decorator.  Usage:
python tools/unreached.py src/simpcat [pytest arguments]"""
import ast
import os
import pathlib
import sys
import threading

import pytest


def statements(source):
    """The first line of each statement of source that runs code: a
    constant on its own, like a docstring, runs none."""
    return {min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt)
            and not isinstance(node, (ast.Global, ast.Nonlocal))
            and not (isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant))}


def main(root, pytest_args):
    root = os.path.realpath(root) + os.sep
    ran = {}  # co_filename -> the lines it ran, or None outside root

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if os.path.realpath(name).startswith(root) \
                else None
        return line if ran[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {os.path.realpath(k): v for k, v in ran.items() if v is not None}
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        missed = statements(path.read_text()) - lines.get(str(path), set())
        print("".join("%s:%d\n" % (os.path.relpath(path), n)
                      for n in sorted(missed)), end="")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

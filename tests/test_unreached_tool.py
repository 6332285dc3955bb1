import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "unreached.py"

TOY = '''"""A module of which the test below runs a part."""
import functools


@functools.lru_cache(maxsize=None)
def reached(x):
    """Run in a thread of the test."""
    if x > 0:
        return (x +
                1)
    return -1


class Box:
    """Built on import."""
    size = 3

    def unused(self):
        return self.size


def never():
    global TOUCHED
    TOUCHED = True
'''

TEST = '''import threading

import toy


def test_reached():
    out = []
    worker = threading.Thread(target=lambda: out.append(toy.reached(2)))
    worker.start()
    worker.join()
    assert out == [3]
'''


def test_unreached_lists_the_statements_no_test_runs(tmp_path):
    # the else path, the method body and the body of never(); the class,
    # the decorated def and the code run in a thread count as reached,
    # and docstrings and the global declaration are no statements to run
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "toy.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TEST)
    result = subprocess.run(
        [sys.executable, str(TOOL), "pkg", "-q", "-p", "no:cacheprovider",
         "test_toy.py"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH="pkg"))
    assert result.returncode == 0, result.stdout + result.stderr
    listed = [line for line in result.stdout.splitlines()
              if line.startswith("pkg")]
    assert listed == ["pkg/toy.py:11", "pkg/toy.py:19", "pkg/toy.py:24"]

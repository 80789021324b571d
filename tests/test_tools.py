"""Tests of ``tools/code_lines.py``, the count of code lines behind the size figures."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# the lines that hold code are marked "# +": a comment on a code line leaves it code
SAMPLE = '''\
"""A module docstring,
over two lines."""

# a comment on a line of its own

import os  # +


class Sample:  # +
    """A one-line class docstring."""

    def method(self):  # +
        """A function docstring,

        over several lines.
        """
        total = (1 +  # +
                 2)  # +
        "a string statement that is no docstring"  # +
        return total  # +


async def later():  # +
    """An async function's docstring."""
    return [  # +
        os.sep,  # +
    ]  # +
'''


def code_lines(*paths: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_code_lines_counts_code_and_not_docstrings_comments_or_blanks(tmp_path):
    want = sum("# +" in line for line in SAMPLE.splitlines())
    assert want == 11
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE.replace("  # +", ""), encoding="utf-8")
    done = code_lines(path)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{want} {path}\n", "")
    # with several files, one line each and then the total
    other = tmp_path / "other.py"
    other.write_text(SAMPLE, encoding="utf-8")  # the markers are comments: the same count
    done = code_lines(path, other)
    assert done.stdout == f"{want} {path}\n{want} {other}\n{2 * want} total\n", done.stderr


def test_code_lines_without_a_file_prints_its_usage():
    done = code_lines()
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "usage: python tools/code_lines.py FILE...\n"

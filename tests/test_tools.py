"""Tests of the scripts under ``tools/``: the code-line count and the benchmark pair driver."""

import importlib.util
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPT.parent / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "items_per_s", "better": "higher", "bound": 0.25}]


def test_bench_pairs_alternates_which_side_runs_first():
    bench_pairs = load_bench_pairs()
    assert bench_pairs.run_order(3) == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]


def test_bench_pairs_summarizes_a_stub_runner():
    bench_pairs = load_bench_pairs()
    # wall_s per pair: the change wins pairs 1, 2 and 4, ties pair 3, loses pair 5
    walls = {"parent": iter([1.0, 2.0, 3.0, 4.0, 5.0]),
             "change": iter([0.5, 1.0, 3.0, 3.0, 6.0])}
    calls = []

    def runner(side):
        calls.append(side)
        wall = next(walls[side])
        return {"correct": side == "parent" or wall < 6, "attempted": 10,
                "failed": int(wall >= 6),
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "items_per_s": {"value": 1 / wall, "unit": "1/s"},
                            "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}

    result = bench_pairs.compare(runner, 5, METRICS)
    assert calls == [side for _, side in bench_pairs.run_order(5)]
    assert [(r["pair"], r["side"]) for r in result["runs"]] == bench_pairs.run_order(5)
    assert not result["all_correct"]
    assert result["counts"] == {"parent": {"attempted": 50, "failed": 0},
                                "change": {"attempted": 50, "failed": 1}}
    wall = result["metrics"]["wall_s"]
    assert wall["parent"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert wall["change"] == [0.5, 1.0, 3.0, 3.0, 6.0]
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 3.0)
    assert wall["parent_quartiles"] == [2.0, 4.0] and wall["parent_iqr"] == 2.0
    assert (wall["change_wins"], wall["change_losses"]) == (3, 1)
    assert wall["rel_change"] == 0.0 and not wall["median_gap_exceeds_parent_iqr"]
    # higher is better: the same pairs win
    rate = result["metrics"]["items_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (3, 1)
    assert rate["rel_change"] == 0.0
    assert set(result["metrics"]) == {"wall_s", "items_per_s"}


def test_bench_pairs_flags_a_median_gap_beyond_the_base_spread():
    bench_pairs = load_bench_pairs()
    runs = [{"pair": p, "side": side, "metrics": {"wall_s": v}}
            for p, (b, c) in enumerate([(1.00, 0.80), (1.02, 0.81), (0.99, 0.79)], 1)
            for side, v in (("parent", b), ("change", c))]
    wall = bench_pairs.summarize(runs, METRICS[:1])["wall_s"]
    assert (wall["change_wins"], wall["change_losses"]) == (3, 0)
    assert wall["parent_median"] == 1.00 and wall["change_median"] == 0.80
    assert wall["rel_change"] == -0.2 and wall["median_gap_exceeds_parent_iqr"]

"""Compare the working tree with a base revision on one benchmark workload, in alternated pairs.

Usage::

    python tools/bench_pairs.py --base REV --workload W --pairs N --seconds S \\
        --label NAME [--seed K]

The base tree is REV's committed files, extracted with ``git archive`` into
``.bench_build/<sha>/``; the change is the working tree this script sits in,
committed or not.  Each pair runs the unmodified ``python3 bench/run.py
--workload W --seed K --seconds S`` once on each tree: odd pairs run the
base first, even pairs the change first, since the order of two runs can
move their times.  The comparison goes to ``BENCH_<NAME>.json`` at the
root: the machine, both shas, and per workload and seed every run's
metrics and counts, and per metric of ``BENCHMARK.json``'s ``end_to_end``
list the medians, the base's quartiles (``statistics.quantiles``,
inclusive), and the pairs the change won and lost, ties counting for
neither.  A later run with the same label and base adds its workload and
seed to the file, or replaces them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in the order they run: the base first on odd pairs."""
    order = []
    for pair in range(1, pairs + 1):
        sides = SIDES if pair % 2 else SIDES[::-1]
        order += [(pair, side) for side in sides]
    return order


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, both sides' values by pair, medians, base quartiles and wins."""
    by_pair = {(r["pair"], r["side"]): r for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [by_pair[p, side]["metrics"][name] for p in pairs] for side in SIDES}
        base, change = values["parent"], values["change"]
        q = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        better = [(c < b) if lower else (c > b) for b, c in zip(base, change) if c != b]
        out[name] = {
            "better": m["better"], "bound": m["bound"],
            **values,
            "parent_median": base_median, "change_median": change_median,
            "parent_quartiles": q, "parent_iqr": q[1] - q[0],
            "rel_change": round(change_median / base_median - 1, 4) if base_median else None,
            "change_wins": sum(better), "change_losses": len(better) - sum(better),
            "median_gap_exceeds_parent_iqr": abs(change_median - base_median) > q[1] - q[0],
        }
    return out


def compare(runner: Callable[[str], dict], pairs: int, metrics: list[dict]) -> dict:
    """Run the pairs through ``runner(side)`` and summarize them."""
    runs = []
    for pair, side in run_order(pairs):
        result = runner(side)
        runs.append({"pair": pair, "side": side, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {m["name"]: result["metrics"][m["name"]]["value"]
                                 for m in metrics}})
    counts = {side: {key: sum(r[key] for r in runs if r["side"] == side)
                     for key in ("attempted", "failed")} for side in SIDES}
    return {"pairs": pairs, "all_correct": all(r["correct"] for r in runs),
            "counts": counts, "metrics": summarize(runs, metrics), "runs": runs}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def base_tree(rev: str) -> tuple[str, Path]:
    """REV's sha and its committed files under ``.bench_build/``, extracted once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    if not tree.is_dir():
        part = BUILD / f"{sha}.part"
        part.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(part)], input=archive, check=True)
        part.rename(tree)
    return sha, tree


def bench_runner(trees: dict[str, Path], workload: str, seed: int, seconds: float,
                 machine: dict) -> Callable[[str], dict]:
    """Run ``bench/run.py`` in a side's tree; keep the first machine record it prints."""
    def run(side: str) -> dict:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=trees[side], capture_output=True, text=True, check=True,
            timeout=max(600.0, 20 * seconds))
        lines = done.stdout.strip().splitlines()
        for line in lines:
            if line.startswith("machine ") and not machine:
                machine.update(json.loads(line[len("machine "):]))
        return json.loads(lines[-1])
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sha, tree = base_tree(args.base)
    out = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else {}
    if record and record["parent"]["sha"] != sha:
        parser.error(f"{out.name} compares against {record['parent']['sha']}; "
                     "choose another label")
    machine: dict = {}
    runner = bench_runner({"parent": tree, "change": ROOT}, args.workload, args.seed,
                          args.seconds, machine)
    result = compare(runner, args.pairs, metrics)
    record.update({
        "command": "python3 bench/run.py --workload W --seed K --seconds S",
        "order": "odd pairs run the parent first, even pairs the change first",
        "parent": {"rev": args.base, "sha": sha},
        "change": {"sha": git("rev-parse", "HEAD"),
                   "uncommitted_under_src_or_bench":
                       bool(git("status", "--porcelain", "--", "src", "bench"))},
        "machine": machine,
    })
    comparisons = record.setdefault("comparisons", {})
    comparisons[f"{args.workload} seed {args.seed}"] = {"seconds": args.seconds, **result}
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
              f"({m['rel_change']}), change won {m['change_wins']} of {args.pairs}")
    print(f"wrote {out.name}; all correct: {result['all_correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

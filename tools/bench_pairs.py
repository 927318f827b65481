"""Alternated benchmark pairs: a checkout of the parent commit against a changed one.

Run from anywhere, with two checkouts (a ``git worktree`` or a ``git archive`` of
the parent commit serves as the first)::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload replay_logs \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 40

For each seed it runs ``perfbench/run.py --trace 0`` once in each directory, one
process at a time: the parent first in even pairs, the change first in odd ones.
It then prints, per end-to-end metric, the parent's median (quartiles), the
change's median, the number of pairs the change won, whether the gain rule
holds (the change better in at least 9 of 10 pairs and a median gap wider than
the parent's quartile spread), and how the change stands against the metric's
regression bound, a fraction of the parent's median: "worse" when the change's
median is worse than the parent's by more than the bound, else "unresolved"
when the parent's quartile spread is wider than the bound and not every change
run beats every parent run, else "within".  ``better`` and ``bound`` come from
``BENCHMARK.json`` in CHANGE_DIR.  It exits 1 if any run is not ``correct``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# The pairs the change must win for a claimed gain: 9 of every 10.
WINS, OF_PAIRS = 9, 10


def run_once(directory: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object ``perfbench/run.py`` prints last, or an incorrect empty one."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(argv, cwd=directory, capture_output=True, text=True).stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values`` (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def regression(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """"worse", "unresolved" or "within": the change's runs against the parent's under
    a regression ``bound`` relative to the parent's median; ``sign`` is -1 where higher
    is better."""
    q1, median, q3 = quartiles(parent)
    if sign * (statistics.median(change) - median) > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved"
    return "within"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of the first parent result, over ``pairs`` of
    (parent, change) results; ``better`` maps a metric to "lower" or "higher", and
    ``bounds`` a metric to its regression bound (a metric without one gets None)."""
    bounds = bounds or {}
    rows = []
    for name in pairs[0][0]["metrics"]:
        parent, change = ([r["metrics"][name]["value"] for r in side] for side in zip(*pairs))
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        bound = bounds.get(name)
        q1, median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gap = sign * (median - change_median)
        rows.append({
            "metric": name,
            "parent_median": median,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": change_median,
            "change_pct": 100.0 * (change_median - median) / median if median else 0.0,
            "wins": wins,
            "pairs": len(pairs),
            "gain": OF_PAIRS * wins >= WINS * len(pairs) and gap > q3 - q1,
            "bound": bound,
            "regression": None if bound is None else regression(parent, change, sign, bound),
        })
    return rows


def format_row(row: dict) -> str:
    text = (
        f"{row['metric']}: parent {row['parent_median']:.6g} ({row['parent_q1']:.6g}-{row['parent_q3']:.6g}), "
        f"change {row['change_median']:.6g} ({row['change_pct']:+.1f}%), "
        f"better in {row['wins']} of {row['pairs']}, gain rule {'met' if row['gain'] else 'not met'}"
    )
    if row["regression"] is not None:
        text += f", bound {row['bound']:.0%}: {row['regression']}"
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    pairs, correct = [], True
    for i, seed in enumerate(args.seeds):
        sides = {}
        for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
            sides[side] = result = run_once(getattr(args, f"{side}_dir"), args.workload, seed, args.seconds)
            correct = correct and result.get("correct") is True
            print(f"pair {i} seed {seed} {side}: correct={result.get('correct')} "
                  f"failed={result.get('failed')}", file=sys.stderr)
        pairs.append((sides["parent"], sides["change"]))
    if all(p["metrics"] and c["metrics"] for p, c in pairs):
        for row in summarize(pairs, better, bounds):
            print(format_row(row))
    if not correct:
        print("bench_pairs: a run did not end correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: two sets of runs of the same code, compared per metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --traced 1

It runs every workload of BENCHMARK.json with seeds 1-10 (the first set)
and 11-20 (the second), each run as long as ``run_seconds``.  For each
workload and end-to-end metric it prints both sets' medians and quartiles,
the spread (third minus first quartile, as a share of the median) and
whether the sets agree within the metric's bound in BENCHMARK.json: every
spread within the bound, the two medians apart by no more than the bound in
either direction, and the same share of failed beats in every run.
``--traced N`` adds N traced runs per workload and reports the tracing
overhead: the traced run's own end-to-end figures against the untraced
medians.  The output is the evidence behind the bounds (see README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        return {"exit": proc.returncode}
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("{"):
            result.update(json.loads(line))
        else:
            print(f"  {workload} seed {seed}: {line}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = parser.parse_args()

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(SEEDS):
            seed = s * SEEDS + i + 1
            for w in workloads:
                runs[w][s].append(run_once(w, seed, seconds, 0))
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)
    traced = {
        w: [run_once(w, 1000 + i, seconds, 1) for i in range(args.traced)] for w in workloads
    }

    agree = True
    for w in workloads:
        crashed = [r for per_set in runs[w] for r in per_set + traced[w] if "exit" in r]
        if crashed:
            print(f"\n== {w}: {len(crashed)} runs exited without a result")
            agree = False
        runs[w] = [[r for r in per_set if "exit" not in r] for per_set in runs[w]]
        traced[w] = [r for r in traced[w] if "exit" not in r]
        print(f"\n== {w}")
        shares = {r["failed"] / r["attempted"] for per_set in runs[w] for r in per_set}
        if len(shares) > 1:
            agree = False
        correct = all(r["correct"] for per_set in runs[w] for r in per_set)
        agree = agree and correct
        print(f"failed share: {sorted(shares)}   correct: {correct}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, ok = [], [], True
            for per_set in runs[w]:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in per_set])
                spread = (q3 - q1) / med
                medians.append(med)
                ok = ok and spread <= bound
                cells.append(f"{med:11.4g} [{q1:.4g}, {q3:.4g}] {spread:6.1%}")
            for later in medians[1:]:
                ok = ok and abs(later - medians[0]) / medians[0] <= bound
            agree = agree and ok
            print(f"{name:20s} bound {bound:4.0%}  " + "  |  ".join(cells)
                  + ("" if ok else "   DISAGREE"))
        if traced[w]:
            print("tracing overhead (traced run vs untraced median):")
            base = [r for per_set in runs[w] for r in per_set]
            for metric in bench["end_to_end"]:
                name = metric["name"]
                plain = statistics.median(r["metrics"][name]["value"] for r in base)
                with_trace = statistics.median(
                    r["traced_end_to_end"][name]["value"] for r in traced[w]
                )
                print(f"  {name:20s} {with_trace / plain - 1:+7.1%}")
    print("\nsets agree within bounds" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline benchmark: per-beat cost, beat-to-decision latency, fleet tick
rate and collector ingest.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload beat-path --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
taken by timing calls into each layer from this directory's files.  The
lines before it name every failure and every output check that did not
hold; a traced run also prints its own end-to-end figures there, so the
tracing overhead can be read off against an untraced run.

Every run prints every metric of its kind.  Each workload has a phase of
its own that gets most of ``--seconds`` and several fresh set-ups; a metric
that another phase measures comes from a shorter single pass of that phase
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import beat_path
import fleet
import ingest
from beat_path import BACKENDS
from common import stop_resource_tracker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PHASES = {"beat-path": beat_path, "fleet-10k": fleet, "ingest": ingest}
#: Set-ups of the workload's own phase in one run; setup_s is their median.
ROUNDS = 3
#: Share of --seconds a phase gets in a run of another workload, in one
#: set-up.  Fleet latency rests on a few dozen ticks, so its pass is longest.
OTHER_SHARE = {"beat-path": 0.1, "fleet-10k": 0.45, "ingest": 0.3}

#: The phase that measures each metric.  setup_s and peak_rss_mb are not
#: here: every workload takes them from its own phase.
OWNER = {
    **{f"beat_ns.{b}": "beat-path" for b in BACKENDS},
    **{f"heartbeat.self_ns.{b}": "beat-path" for b in BACKENDS},
    **{f"backend.append_ns.{b}": "beat-path" for b in BACKENDS},
    "exporter.records_per_batch": "beat-path",
    **{
        name: "fleet-10k"
        for name in (
            "visible_ms.p50", "visible_ms.p90", "decision_ms.p50", "decision_ms.p90",
            "ticks_per_s", "aggregator.poll_ms.p50", "aggregator.poll_ms.p99",
            "arena.poll_ms.p50", "arena.poll_ms.p99", "engine.step_ms.p50",
            "engine.step_ms.p99", "engine.decisions_per_tick", "gen.late_ms.max",
        )
    },
    **{
        name: "ingest"
        for name in (
            "ingest_beats_per_s", "collector.cpu_share", "collector.records_per_frame",
            "journal.bytes_per_record", "gen.send_blocked_s",
        )
    },
}


def pick(workload: str, units: dict[str, str], results: dict) -> dict[str, dict[str, float | str]]:
    """Each metric in ``units``, from the phase that measures it."""
    return {
        name: {"value": results[OWNER.get(name, workload)].metrics[name], "unit": unit}
        for name, unit in units.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(PHASES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} does not hold the repro package to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    trace = bool(args.trace)
    # A traced run also prints its own end-to-end figures.
    printed = {**end_to_end, **per_layer} if trace else end_to_end
    needed = {args.workload} | {OWNER.get(name, args.workload) for name in printed}
    others = needed - {args.workload}
    own_seconds = args.seconds * (1.0 - sum(OTHER_SHARE[p] for p in others)) / ROUNDS

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    results = {}
    try:
        for phase, module in PHASES.items():
            if phase not in needed:
                continue
            own = phase == args.workload
            began = time.perf_counter()
            results[phase] = module.run(
                ROUNDS if own else 1,
                own_seconds if own else OTHER_SHARE[phase] * args.seconds,
                args.seed,
                trace,
                str(workdir),
            )
            results[phase].raw["wall_s"] = time.perf_counter() - began
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = failed = 0
    problems: list[str] = []
    for phase, res in results.items():
        attempted += res.attempted
        failed += res.failed
        for text in res.failures:
            print(f"failure [{phase}]: {text}")
        for text in res.problems:
            print(f"check failed [{phase}]: {text}")
        problems += res.problems
    print(json.dumps({"diagnostics": {phase: res.raw for phase, res in results.items()}}))
    if trace:
        print(json.dumps({"traced_end_to_end": pick(args.workload, end_to_end, results)}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": pick(args.workload, per_layer if trace else end_to_end, results),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

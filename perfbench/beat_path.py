"""``beat-path``: the cost of ``Heartbeat.heartbeat()`` on the caller's thread.

Closed loop, one thread.  A producer process calls ``heartbeat()`` back to
back on ``mem://``, ``file://``, ``shm://``, ``shm-arena://`` and ``tcp://``,
in rounds of :data:`BLOCK` calls per backend whose order a seeded shuffle
sets.  Each block is timed with one pair of clock reads, so the timer costs
two reads per :data:`BLOCK` beats.  The ``tcp://`` collector runs in a
process of its own, so the producer's process holds only the beat path.
Nothing observes the beats while they are made.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

import numpy as np

from common import REF_NS, Child, PhaseResult, Reference, peak_rss_mb, wait_until

BACKENDS = ("mem", "file", "shm", "shm-arena", "tcp")
#: Calls timed together; one round makes BLOCK calls on every backend.
BLOCK = 64
#: Untimed calls per backend before the clock starts (fills buffers, opens
#: the exporter's connection, faults in the shared-memory pages).
WARMUP = 2048


class TimedBackend:
    """Sink handed to ``Heartbeat`` in traced runs: times each ``append``."""

    def __init__(self, backend: Any) -> None:
        self.inner = backend
        self.append_seconds = 0.0

    def append(self, beat: int, timestamp: float, tag: int, thread_id: int) -> None:
        start = time.perf_counter()
        self.inner.append(beat, timestamp, tag, thread_id)
        self.append_seconds += time.perf_counter() - start

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def _collector(conn: Any) -> dict:
    from repro.net.collector import HeartbeatCollector

    with HeartbeatCollector() as collector:
        conn.send(collector.endpoint_url)
        stream, sent = conn.recv()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            info = {s.stream_id: s for s in collector.streams()}.get(stream)
            if info is not None and info.closed and info.total_beats >= sent:
                break
            time.sleep(0.01)
        snap = collector.snapshot(stream)
        return {
            "total": int(snap.total_beats),
            "beats": snap.records["beat"].copy(),
            "timestamps": snap.records["timestamp"].copy(),
        }


def _producer(conn: Any, url_tcp: str, workdir: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.clock import WallClock
    from repro.core.heartbeat import Heartbeat
    from repro.endpoints import open_backend

    tag = f"pb{os.getpid()}"
    urls = {
        "mem": "mem://?capacity=4096",
        "file": f"file://{Path(workdir, tag + '.hblog').resolve()}",
        "shm": f"shm://{tag}?depth=4096",
        "shm-arena": f"shm-arena://{tag}a?streams=1&depth=4096",
        "tcp": f"{url_tcp}?stream={tag}",
    }
    clock = WallClock(rebase=False)
    sinks: dict[str, Any] = {}
    beats = []
    for name in BACKENDS:
        if trace:
            sinks[name] = TimedBackend(open_backend(urls[name]))
            hb = Heartbeat(name=tag, backend=sinks[name], clock=clock)
        else:
            hb = Heartbeat(name=tag, backend=urls[name], clock=clock)
        beats.append(hb)
    rng = np.random.default_rng(seed)
    calls = [0] * len(BACKENDS)
    try:
        for i, hb in enumerate(beats):
            for _ in range(WARMUP):
                hb.heartbeat(i)
            calls[i] += WARMUP
        conn.send("ready")
        start_at = conn.recv()
        wait_until(start_at)
        samples: list[list[int]] = [[] for _ in BACKENDS]
        appends: list[list[float]] = [[] for _ in BACKENDS]
        reference = Reference()
        refs: list[float] = []
        order = np.arange(len(BACKENDS))
        clock_ns = time.perf_counter_ns
        timed = [sinks[name] for name in BACKENDS] if trace else []
        end = start_at + seconds
        while time.perf_counter() < end:
            rng.shuffle(order)
            refs.append(reference.block_ns())
            for i in order:
                beat = beats[i].heartbeat
                tag_value = int(i)
                if trace:
                    before = timed[i].append_seconds
                t0 = clock_ns()
                for _ in range(BLOCK):
                    beat(tag_value)
                samples[i].append(clock_ns() - t0)
                if trace:
                    appends[i].append(timed[i].append_seconds - before)
                calls[i] += BLOCK
        finished_at = time.perf_counter()
        rss = peak_rss_mb()

        problems: list[str] = []
        for i, name in enumerate(BACKENDS):
            if name == "tcp":
                continue
            snap = beats[i].backend.snapshot()
            if snap.total_beats != calls[i]:
                problems.append(f"{name}: total_beats {snap.total_beats} != {calls[i]} calls")
            problems += _retained_problems(name, snap.records["beat"], snap.records["timestamp"])
        tcp = BACKENDS.index("tcp")
        exporter = beats[tcp].backend
        beats[tcp].finalize()  # flushes the send queue, then CLOSE
        stats = exporter.stats()
    finally:
        for hb in beats:
            hb.finalize()
    return {
        "samples": [np.asarray(s, dtype=np.int64) for s in samples],
        "appends": [np.asarray(a, dtype=np.float64) for a in appends],
        "refs": np.asarray(refs),
        "calls": calls,
        "stream": tag,
        "exporter": stats,
        "problems": problems,
        "seconds": finished_at - start_at,
        "peak_rss_mb": rss,
    }


def _retained_problems(name: str, beat: np.ndarray, ts: np.ndarray) -> list[str]:
    problems = []
    if beat.size and not np.all(np.diff(beat) == 1):
        problems.append(f"{name}: retained beat numbers are not consecutive")
    if ts.size and not np.all(np.diff(ts) >= 0):
        problems.append(f"{name}: retained timestamps decrease")
    return problems


def run(rounds: int, seconds: float, seed: int, trace: bool, workdir: str) -> PhaseResult:
    """Run ``rounds`` fresh producer processes of ``seconds`` each."""
    out = PhaseResult()
    setups: list[float] = []
    blocks: list[list[np.ndarray]] = [[] for _ in BACKENDS]
    refs: list[np.ndarray] = []
    append_blocks: list[list[np.ndarray]] = [[] for _ in BACKENDS]
    batches = records = 0
    rss = []
    for r in range(rounds):
        begin = time.perf_counter()
        collector = Child(_collector)
        producer = None
        try:
            url = collector.recv()
            producer = Child(_producer, url, workdir, seed * 1000 + r, seconds, trace)
            producer.recv()
            start_at = time.perf_counter()
            setups.append(start_at - begin)
            producer.send(start_at)
            res = producer.recv(seconds + 60.0)
            collector.send((res["stream"], res["exporter"]["sent_records"]))
            held = collector.recv()
        finally:
            if producer is not None:
                producer.stop()
            collector.stop()
        rss.append(res["peak_rss_mb"])
        calls = res["calls"]
        out.attempted += sum(calls)
        out.problems += res["problems"]
        stats = res["exporter"]
        tcp_calls = calls[BACKENDS.index("tcp")]
        dropped = int(stats["dropped_records"])
        if dropped:
            out.failed += dropped
            out.failures.append(f"tcp exporter dropped {dropped} of {tcp_calls} beats")
        out.check(
            stats["sent_records"] + dropped == tcp_calls,
            f"tcp: sent {stats['sent_records']} + dropped {dropped} != {tcp_calls} calls",
        )
        out.check(
            held["total"] == stats["sent_records"],
            f"tcp: collector holds {held['total']} beats, exporter sent {stats['sent_records']}",
        )
        out.problems += _retained_problems("tcp collector", held["beats"], held["timestamps"])
        refs.append(res["refs"])
        for i in range(len(BACKENDS)):
            blocks[i].append(res["samples"][i])
            append_blocks[i].append(res["appends"][i])
        batches += int(stats["sent_batches"])
        records += int(stats["sent_records"])

    m = out.metrics
    m["setup_s"] = float(np.median(setups))
    m["peak_rss_mb"] = float(np.median(rss))
    # Each block is scaled by the reference block of its own round.
    scale = REF_NS / np.concatenate(refs)
    out.raw["ref_ns"] = float(np.median(np.concatenate(refs)))
    for i, name in enumerate(BACKENDS):
        per_beat = np.concatenate(blocks[i]) / BLOCK
        m[f"beat_ns.{name}"] = float(np.median(per_beat * scale))
        out.raw[f"beat_ns.{name}"] = float(np.median(per_beat))
        if trace:
            append_ns = np.concatenate(append_blocks[i]) * 1e9 / BLOCK
            m[f"backend.append_ns.{name}"] = float(np.median(append_ns * scale))
            m[f"heartbeat.self_ns.{name}"] = float(np.median((per_beat - append_ns) * scale))
    if trace:
        m["exporter.records_per_batch"] = records / max(batches, 1)
    return out

"""``ingest``: how many relayed beats one journaled root collector absorbs.

Closed loop, paced by TCP flow control, over one connection.  A generator
process sends RELAY frames for :data:`STREAMS` streams, as an edge collector
sends them: :data:`ENTRIES` entries per frame and :data:`RECORDS` records per
entry, so one cycle of :data:`FRAMES` frames gives every stream its next
:data:`RECORDS` beats.  One frame of every cycle, picked by the seed, is sent
twice in a row, as an edge replays after it reconnects.  The root
``HeartbeatCollector`` keeps a journal.  Each set-up sends timed bursts of
one cycle each, as many as fit its share of the run (:func:`bursts_for`),
each measured on its own.  A burst's frames are encoded before its first
byte, so the timed stream is ``sendall`` alone.  The time goes to collector ingest: recv,
``FrameDecoder``, ``decode_relay_frame``, dedup, append and the journal
write.
"""

from __future__ import annotations

import os
import shutil
import socket
import time
from pathlib import Path
from typing import Any

import numpy as np

from common import Child, PhaseResult, ReferenceClock, peak_rss_mb, thread_cpu_seconds

STREAMS = 10_000
ENTRIES = 1_000
RECORDS = 8
FRAMES = STREAMS // ENTRIES
#: Records one cycle, and so one burst, sends: its replayed frame included.
CYCLE_RECORDS = (FRAMES + 1) * ENTRIES * RECORDS
#: Records per second the number of bursts is sized for: about what one
#: journaled collector absorbs on a 2-CPU host, so that the bursts of a
#: set-up last about its share of the run.  The work of a set-up stays fixed
#: whatever the collector's speed.
SIZING_RATE = 250_000.0
#: Fewest timed bursts in a set-up.
MIN_BURSTS = 3
#: Records each collector stream retains; totals count beyond it.
CAPACITY = 256


def _cycle_frames(cycle: int, names: list[str], tags: np.ndarray) -> list[bytes]:
    """The RELAY frames that give every stream beats ``cycle * RECORDS ...``."""
    from repro.core.record import RECORD_DTYPE
    from repro.net import protocol

    records = np.empty((STREAMS, RECORDS), dtype=RECORD_DTYPE)
    beat = cycle * RECORDS + np.arange(RECORDS)
    records["beat"] = beat
    records["timestamp"] = beat * 0.5
    records["tag"] = tags[:, None]
    records["thread_id"] = 1
    frames = []
    for f in range(FRAMES):
        entries = [
            protocol.RelayEntry(
                stream_id=names[s], pid=1, nonce=s + 1, target_min=1.0, target_max=3.0,
                records=records[s],
            )
            for s in range(f * ENTRIES, (f + 1) * ENTRIES)
        ]
        frames.append(protocol.encode_relay(entries, hop_timestamp=time.perf_counter()))
    return frames


def bursts_for(seconds: float) -> int:
    """Timed bursts of a set-up that gets ``seconds``."""
    return max(MIN_BURSTS, round(seconds * SIZING_RATE / CYCLE_RECORDS))


def _generator(conn: Any, address: tuple[str, int], bursts: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    names = [f"edge-{i:05d}" for i in rng.permutation(STREAMS)]
    tags = rng.integers(0, 1 << 16, size=STREAMS)
    blocked = 0.0
    cycle = 0
    with socket.create_connection(address) as sock:
        for frame in _cycle_frames(cycle, names, tags):  # registers every stream
            sock.sendall(frame)
        cycle += 1
        conn.send(STREAMS * RECORDS)
        for _ in range(bursts):
            conn.recv()  # the collector is waiting
            frames = []
            replay = int(rng.integers(FRAMES))
            for f, frame in enumerate(_cycle_frames(cycle, names, tags)):
                frames += [frame] * (2 if f == replay else 1)
            cycle += 1
            first_byte = time.perf_counter()
            for frame in frames:
                t0 = time.perf_counter()
                sock.sendall(frame)
                blocked += time.perf_counter() - t0
            conn.send(
                {
                    "sent": len(frames) * ENTRIES * RECORDS,
                    "replayed": ENTRIES * RECORDS,
                    "first_byte": first_byte,
                }
            )
        conn.recv()  # the collector has accounted for every record
    return {"send_blocked_s": blocked, "cycles": cycle}


def _collector(conn: Any, journal_dir: str, bursts: int, reopen: bool) -> dict:
    from repro.net.collector import HeartbeatCollector

    def accounted() -> int:
        stats = collector.stats()
        return stats["records"] + stats["relay_duplicates"]

    collector = HeartbeatCollector(default_capacity=CAPACITY, journal=journal_dir)
    try:
        conn.send(collector.address)
        expect = conn.recv()
        deadline = time.perf_counter() + 30.0
        while accounted() < expect and time.perf_counter() < deadline:
            time.sleep(0.002)
        loop_thread = f"hb-collector-{collector.port}"
        cpu = -thread_cpu_seconds(loop_thread)
        clock = ReferenceClock()
        timed = []
        for _ in range(bursts):
            conn.send(time.perf_counter())  # the timed part may start
            while not conn.poll(0.002):
                clock.tick()
            burst = conn.recv()
            expect += burst["sent"]
            deadline = time.perf_counter() + 60.0
            while accounted() < expect and time.perf_counter() < deadline:
                time.sleep(0.002)
                clock.tick()
            finished = time.perf_counter()
            clock.tick()
            burst.update(finished=finished, scaled_s=clock.between(burst["first_byte"], finished))
            timed.append(burst)
        cpu += thread_cpu_seconds(loop_thread)
        rss = peak_rss_mb()
        done = accounted()
        stats = collector.stats()
        totals = {s.stream_id: s.total_beats for s in collector.streams()}
        last = {sid: int(collector.snapshot(sid).records["beat"][-1]) for sid in totals}
    finally:
        collector.close()
    journal_bytes = sum(p.stat().st_size for p in Path(journal_dir).iterdir())
    restored = last
    if reopen:
        with HeartbeatCollector(default_capacity=CAPACITY, journal=journal_dir) as reopened:
            restored = {
                sid: int(reopened.snapshot(sid).records["beat"][-1])
                for sid in reopened.stream_ids()
            }
    return {
        "accounted": done,
        "expect": expect,
        "bursts": timed,
        "cpu": cpu,
        "stats": stats,
        "totals": totals,
        "last": last,
        "restored": restored,
        "journal_bytes": journal_bytes,
        "ref_ns": float(np.median(clock.blocks)),
        "peak_rss_mb": rss,
    }


def run(rounds: int, seconds: float, seed: int, trace: bool, workdir: str) -> PhaseResult:
    out = PhaseResult()
    setups, rss, refs, cpu_share, per_frame, per_record, blocked = [], [], [], [], [], [], []
    rates: list[float] = []
    scaled: list[float] = []
    for r in range(rounds):
        journal_dir = os.path.join(workdir, f"journal-{r}")
        begin = time.perf_counter()
        # Reopening 10 000 journals takes seconds, so only the last set-up of
        # an ingest run checks it; a single pass in another workload's run
        # skips it.
        bursts = bursts_for(seconds)
        collector = Child(_collector, journal_dir, bursts, rounds > 1 and r == rounds - 1)
        generator = None
        try:
            address = collector.recv()
            generator = Child(_generator, address, bursts, seed * 1000 + r)
            collector.send(generator.recv())
            for b in range(bursts):
                start_at = collector.recv()
                if b == 0:
                    setups.append(start_at - begin)
                generator.send(start_at)
                collector.send(generator.recv(seconds + 60.0))
            held = collector.recv(120.0)
            generator.send("done")
            gen = generator.recv()
        finally:
            if generator is not None:
                generator.stop()
            collector.stop()
            shutil.rmtree(journal_dir, ignore_errors=True)
        sent = sum(b["sent"] for b in held["bursts"])
        replayed = sum(b["replayed"] for b in held["bursts"])
        out.attempted += sent + STREAMS * RECORDS
        missing = held["expect"] - held["accounted"]
        out.failed += missing
        if missing:
            out.failures.append(f"ingest: {missing} records never accounted for")
        stats = held["stats"]
        distinct = gen["cycles"] * RECORDS
        wrong = sum(1 for total in held["totals"].values() if total != distinct)
        out.check(len(held["totals"]) == STREAMS, f"ingest: {len(held['totals'])} streams registered")
        out.check(wrong == 0, f"ingest: {wrong} streams do not hold their {distinct} distinct beats")
        out.check(
            stats["relay_duplicates"] == replayed,
            f"ingest: {stats['relay_duplicates']} duplicates counted, {replayed} replayed",
        )
        out.check(stats["protocol_errors"] == 0, "ingest: protocol errors")
        out.check(
            held["restored"] == held["last"] and all(b == distinct - 1 for b in held["last"].values()),
            "ingest: the reopened journal does not restore every stream's last beat",
        )
        rss.append(held["peak_rss_mb"])
        refs.append(held["ref_ns"])
        for b in held["bursts"]:
            rates.append(b["sent"] / (b["finished"] - b["first_byte"]))
            scaled.append(b["sent"] / b["scaled_s"])
        timed = sum(b["finished"] - b["first_byte"] for b in held["bursts"])
        cpu_share.append(held["cpu"] / timed)
        per_frame.append(stats["records"] / max(stats["frames"], 1))
        per_record.append(held["journal_bytes"] / max(stats["records"], 1))
        blocked.append(gen["send_blocked_s"])

    m = out.metrics
    m["setup_s"] = float(np.median(setups))
    m["peak_rss_mb"] = float(np.median(rss))
    out.raw["ref_ns"] = float(np.median(refs))
    out.raw["ingest_beats_per_s"] = float(np.median(rates))
    m["ingest_beats_per_s"] = float(np.median(scaled))
    if trace:
        m["collector.cpu_share"] = float(np.median(cpu_share))
        m["collector.records_per_frame"] = float(np.median(per_frame))
        m["journal.bytes_per_record"] = float(np.median(per_record))
        m["gen.send_blocked_s"] = float(np.median(blocked))
    return out

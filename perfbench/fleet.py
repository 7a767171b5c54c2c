"""``fleet-10k``: deciding a fleet of 10 000 streams held in one arena slab.

Open loop.  A producer process creates a ``shm-arena://`` slab of
:data:`ROWS` rows and trickles beats into it round-robin, beat ``k`` into
row ``k mod ROWS``, at :data:`RATE` beats/s in total (2 beats/s per row).
The observer process attaches the slab with ``attach_arena`` and ticks an
``AdaptationEngine`` with one loop per row back to back.  The time goes to
``Arena.snapshot_since_all``, classification and stepping the loops; no
socket is involved.

Beat ``k`` of the timed phase is due at ``start + k / RATE``.  It is visible
at the return of the first poll whose sample counts it in its row, and
decided at the return of the tick that holds that poll.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from common import Child, PhaseResult, ReferenceClock, peak_rss_mb, wait_until

ROWS = 10_000
RATE = 20_000.0
#: Records each row retains.
DEPTH = 64
#: Beats each row gets before the clock starts, so every loop exists.
WARMUP = 2
#: A row with no beat for this long is STALLED; rows beat every 0.5 s.
LIVENESS_S = 3.0
DRAIN_S = 5.0
TARGET = (1.5, 2.5)


def pct(values: np.ndarray | list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: The windowed tail printed beside the pooled ones (see :func:`windowed_pct`).
WINDOW_S = 0.5
#: Fewest samples a window needs for its tail percentile to count: ten
#: beyond the 99th percentile.
MIN_WINDOW = 1000


def windowed_pct(values: np.ndarray, window: np.ndarray, q: float) -> float:
    """Median over WINDOW_S windows of due time of each window's ``q``-th
    percentile.

    A diagnostic only: it says whether a pooled tail comes from every
    window or from a few slow ones.  Windows
    with fewer than MIN_WINDOW samples (the ragged last one) are left out
    unless no window is full.
    """
    ids, counts = np.unique(window, return_counts=True)
    full = ids[counts >= MIN_WINDOW]
    if full.size == 0:
        return pct(values, q)
    return float(np.median([np.percentile(values[window == w], q) for w in full]))


class TimedPoll:
    """Stands in for ``HeartbeatAggregator.poll`` on one aggregator instance.

    It records when each poll returned (the end-to-end visibility instant)
    and, when tracing, how long the poll took and how much of it the arena
    slab path took (from the aggregator's own
    ``aggregator_poll_duration_seconds{path="arena"}`` histogram).
    """

    def __init__(self, aggregator: Any, trace: bool) -> None:
        self._poll = aggregator.poll
        self._trace = trace
        self._arena = aggregator.metrics.histogram(
            "aggregator_poll_duration_seconds", labels={"path": "arena"}
        )
        self.returned_at = 0.0
        self.duration = 0.0
        self.arena_duration = 0.0
        aggregator.poll = self

    def __call__(self) -> Any:
        if self._trace:
            arena_before = self._arena.sum
            start = time.perf_counter()
            sample = self._poll()
            self.returned_at = time.perf_counter()
            self.duration = self.returned_at - start
            self.arena_duration = self._arena.sum - arena_before
            return sample
        sample = self._poll()
        self.returned_at = time.perf_counter()
        return sample


def loop_factory(name: str, reading: Any) -> Any:
    """One step-controller loop per stream with a published goal."""
    from repro.adapt import ControlLoop, FunctionActuator
    from repro.control import StepController, TargetWindow

    if reading.target_min <= 0.0 and reading.target_max <= 0.0:
        return None
    knob = [0.0]
    return ControlLoop(
        None,
        StepController(TargetWindow(reading.target_min, reading.target_max)),
        FunctionActuator(lambda: knob[0], lambda v: knob.__setitem__(0, v), bounds=(0.0, 16.0)),
        name=name,
        trace_limit=1,
    )


class EngineDriver:
    """Ticks an ``AdaptationEngine`` back to back and keeps per-tick figures.

    ``tick`` runs one tick and returns it with the instant its poll returned
    and the instant the tick returned; ``record`` counts the tick just run
    as part of the timed phase.  Every tick's errors, timed or not, are kept
    as text.
    """

    def __init__(self, engine: Any, trace: bool) -> None:
        self.engine = engine
        self.poll = TimedPoll(engine.aggregator, trace)
        #: Ticked after every engine tick.
        self.clock = ReferenceClock()
        self.ticks = 0
        self.decisions = 0
        self.errors: list[str] = []
        #: (tick, poll, arena part of the poll) seconds per recorded tick.
        self.layers: list[tuple[float, float, float]] = []
        self._last = (0.0, 0.0, 0.0)

    def tick(self) -> tuple[Any, float, float]:
        start = time.perf_counter()
        tick = self.engine.tick()
        ended = time.perf_counter()
        for name, text in tick.errors.items():
            self.errors.append(f"tick {tick.index} {name}: {text}")
        for name, text in tick.sample.errors.items():
            self.errors.append(f"tick {tick.index} sample {name}: {text}")
        self._last = (ended - start, self.poll.duration, self.poll.arena_duration)
        self.clock.tick()
        return tick, self.poll.returned_at, ended

    def record(self, tick: Any) -> None:
        self.ticks += 1
        self.decisions += len(tick.traces)
        self.layers.append(self._last)


def engine_layer_metrics(layers: list[tuple[float, float, float]], decisions: int) -> dict[str, float]:
    """Per-layer figures over recorded ticks (meaningful in traced runs).

    ``layers`` holds (tick, poll, arena part of the poll) seconds per tick.
    """
    tick_s, poll_s, arena_s = (np.asarray(c) * 1e3 for c in zip(*layers))
    step = tick_s - poll_s
    return {
        "aggregator.poll_ms.p50": pct(poll_s, 50),
        "aggregator.poll_ms.p99": pct(poll_s, 99),
        "arena.poll_ms.p50": pct(arena_s, 50),
        "arena.poll_ms.p99": pct(arena_s, 99),
        "engine.step_ms.p50": pct(step, 50),
        "engine.step_ms.p99": pct(step, 99),
        "engine.decisions_per_tick": decisions / max(len(layers), 1),
    }


def _observer(conn: Any, n_timed: int, trace: bool) -> dict:
    from repro.adapt import AdaptationEngine
    from repro.clock import WallClock
    from repro.core.aggregator import HeartbeatAggregator
    from repro.core.backends.arena import Arena

    arena = Arena.attach(conn.recv())
    aggregator = HeartbeatAggregator(clock=WallClock(rebase=False), liveness_timeout=LIVENESS_S)
    aggregator.attach_arena(arena, own=True)
    try:
        engine = AdaptationEngine(aggregator, loop_factory)
        driver = EngineDriver(engine, trace)
        deadline = time.perf_counter() + 30.0
        while True:
            tick, _, _ = driver.tick()
            if len(engine.loops) == ROWS and tick.sample.total_beats() >= ROWS * WARMUP:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("warm-up beats never became visible")
        row_of = np.array([int(name[1:]) for name in tick.sample.names])
        start_at = time.perf_counter() + 0.05
        conn.send(start_at)

        expected = (n_timed - np.arange(ROWS) + ROWS - 1) // ROWS
        counts = np.zeros(ROWS, dtype=np.int64)
        visible, decided, windows = [], [], []
        stalled: list[str] = []
        totals = np.zeros(ROWS, dtype=np.int64)
        end = start_at + n_timed / RATE
        wait_until(start_at)
        driver.clock.tick()
        while True:
            tick, polled, ticked = driver.tick()
            sample = tick.sample
            # A poll that could not read the slab reports it in
            # sample.errors (kept as a failure text) and holds no rows; the
            # next poll catches up, so its beats are not lost.
            grew = np.zeros(0, dtype=np.int64)
            if len(sample) == ROWS:
                totals = np.fromiter(
                    (r.total_beats for r in sample.readings), dtype=np.int64, count=ROWS
                )
                now = np.zeros(ROWS, dtype=np.int64)
                now[row_of] = np.minimum(totals - WARMUP, expected[row_of])
                grew = np.nonzero(now > counts)[0]
            if grew.size:
                fresh = (now - counts)[grew]
                rows = np.repeat(grew, fresh)
                # j-th timed beat of row r is beat k = j * ROWS + r
                offsets = np.arange(fresh.sum()) - np.repeat(np.cumsum(fresh) - fresh, fresh)
                k = (np.repeat(counts[grew], fresh) + offsets) * ROWS + rows
                due = start_at + k / RATE
                # Latency here is CPU time of the ticking thread, so it is
                # read on the reference clock, like ticks_per_s.
                clock = np.asarray(driver.clock.times), np.asarray(driver.clock.scaled)
                at_due = np.interp(due, *clock)
                at_poll, at_tick = np.interp((polled, ticked), *clock)
                visible.append(at_poll - at_due)
                windows.append(np.floor((due - start_at) / WINDOW_S).astype(np.int64))
                decided.append(at_tick - at_due)
                counts = np.maximum(counts, now)
            if ticked <= end:
                last_timed = ticked
                driver.record(tick)
                stalled += sample.stalled()[:3]
            elif np.array_equal(counts, expected) or ticked > end + DRAIN_S:
                break
        driver.clock.tick()
        rss = peak_rss_mb()
        final = np.zeros(ROWS, dtype=np.int64)
        final[row_of] = totals
    finally:
        aggregator.close()
    return {
        "visible": np.concatenate(visible) if visible else np.zeros(0),
        "decided": np.concatenate(decided) if decided else np.zeros(0),
        "windows": np.concatenate(windows) if windows else np.zeros(0, np.int64),
        "totals": final,
        "expected": expected + WARMUP,
        "stalled": stalled,
        "ticks": driver.ticks,
        "errors": driver.errors,
        "layers": driver.layers,
        "decisions": driver.decisions,
        "ref_ns": float(np.median(driver.clock.blocks)),
        "scaled_s": driver.clock.between(start_at, last_timed),
        "peak_rss_mb": rss,
    }


def _producer(conn: Any, n_timed: int, seed: int) -> dict:
    from repro.clock import WallClock
    from repro.core.backends.arena import Arena
    from repro.core.heartbeat import Heartbeat

    arena = Arena.create(streams=ROWS, depth=DEPTH)
    clock = WallClock(rebase=False)
    try:
        beats = []
        for i in range(ROWS):
            name = f"r{i:05d}"
            hb = Heartbeat(name=name, backend=arena.allocate(name), clock=clock)
            hb.set_target_rate(*TARGET)
            beats.append(hb.heartbeat)
        tags = np.random.default_rng(seed).integers(0, 1 << 16, size=ROWS).tolist()
        for _ in range(WARMUP):
            for i, beat in enumerate(beats):
                beat(tags[i])
        conn.send(arena.name)
        start_at = conn.recv()
        late_max = 0.0
        k = 0
        clock_now = time.perf_counter
        while k < n_timed:
            now = clock_now()
            upto = min(n_timed, int((now - start_at) * RATE) + 1)
            if upto <= k:
                time.sleep(max(0.0, start_at + k / RATE - now))
                continue
            late_max = max(late_max, now - (start_at + k / RATE))
            for j in range(k, upto):
                row = j % ROWS
                beats[row](tags[row])
            k = upto
        conn.recv()  # the observer is done with the slab
    finally:
        arena.close()
    return {"sent": ROWS * WARMUP + n_timed, "late_max": late_max}


def run(rounds: int, seconds: float, seed: int, trace: bool, workdir: str) -> PhaseResult:
    out = PhaseResult()
    n_timed = int(RATE * seconds)
    setups, rss, layers, late = [], [], [], []
    visible, decided, windows, refs = [], [], [], []
    ticks = decisions = 0
    scaled = 0.0
    for r in range(rounds):
        begin = time.perf_counter()
        producer = Child(_producer, n_timed, seed * 1000 + r)
        observer = None
        try:
            name = producer.recv()
            observer = Child(_observer, n_timed, trace)
            observer.send(name)
            start_at = observer.recv()
            setups.append(start_at - begin)
            producer.send(start_at)
            seen = observer.recv(seconds + 60.0)
            producer.send("close")
            made = producer.recv()
        finally:
            if observer is not None:
                observer.stop()
            producer.stop()
        out.attempted += made["sent"]
        short = int(np.maximum(seen["expected"] - seen["totals"], 0).sum())
        out.failed += short
        out.failures += seen["errors"]
        mismatched = int(np.count_nonzero(seen["totals"] != seen["expected"]))
        out.check(mismatched == 0, f"fleet: {mismatched} rows do not hold the beats scheduled for them")
        out.check(not seen["stalled"], f"fleet: streams classified STALLED: {seen['stalled'][:3]}")
        out.check(
            len(seen["visible"]) == n_timed, "fleet: not every timed beat became visible"
        )
        rss.append(seen["peak_rss_mb"])
        ticks += seen["ticks"]
        decisions += seen["decisions"]
        layers += seen["layers"]
        refs.append(seen["ref_ns"])
        scaled += seen["scaled_s"]
        visible.append(seen["visible"])
        windows.append(r * 1_000_000 + seen["windows"])
        decided.append(seen["decided"])
        late.append(made["late_max"])

    vis = np.concatenate(visible) * 1e3
    dec = np.concatenate(decided) * 1e3
    m = out.metrics
    m["setup_s"] = float(np.median(setups))
    m["peak_rss_mb"] = float(np.median(rss))
    out.raw["ref_ns"] = float(np.median(refs))
    # Every percentile pools every timed beat of every set-up.  The p99s
    # rest on the few longest ticks of a run and spread too widely from run
    # to run to be gated (see README.md), so they are diagnostics.
    window = np.concatenate(windows)
    for kind, values in (("visible", vis), ("decision", dec)):
        m[f"{kind}_ms.p50"] = pct(values, 50)
        m[f"{kind}_ms.p90"] = pct(values, 90)
        out.raw[f"{kind}_ms.p99"] = pct(values, 99)
        out.raw[f"{kind}_ms.p99.windowed"] = windowed_pct(values, window, 99)
    out.raw["ticks_per_s"] = ticks / (rounds * n_timed / RATE)
    m["ticks_per_s"] = ticks / scaled
    if trace:
        m.update(engine_layer_metrics(layers, decisions))
        m["gen.late_ms.max"] = max(late) * 1e3
    return out

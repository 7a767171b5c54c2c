"""Shared plumbing for the pipeline benchmark's phases.

Every phase runs its producer and its observed side in fresh processes
started with the ``spawn`` method; the orchestrating process only waits on
pipes.  Times are ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock, so a due time computed in one process and a
poll return read in another are on one time base.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

CTX = mp.get_context("spawn")

#: Longest any one process of a phase may take beyond its planned time.
GRACE_S = 60.0


#: Nominal cost of one reference step.  Host speed on a shared machine
#: drifts by tens of percent within seconds, and every CPU-bound figure
#: drifts with it; each process that does measured work also times
#: reference steps on the same thread and scales its figures to a host on
#: which one step takes REF_NS.  See README.md, "Host speed".
REF_NS = 1000.0
#: Reference steps timed together.
REF_BLOCK = 64
#: Latest reference blocks whose median a ReferenceClock takes as the speed.
#: One block of 64 steps read after a 170 ms fleet tick varies by a factor of
#: two from tick to tick, far more than the host's speed does; scaling each
#: interval by its own block made the tick intervals spread more than wall
#: time did (coefficient of variation 0.29 against 0.25), and the median of
#: five brought it to 0.20-0.24.
REF_SMOOTH = 5


class Reference:
    """A fixed piece of interpreter work: a lock, a clock read, a dict store.

    It exercises what a beat exercises (bytecode dispatch, attribute access,
    a lock, a clock read) and nothing of the program under test.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._seen: dict[int, float] = {}

    def _step(self, key: int) -> int:
        with self._lock:
            now = time.perf_counter()
            self._count += 1
            self._seen[key & 63] = now
            return self._count

    def block_ns(self) -> float:
        """Nanoseconds per step over one block of REF_BLOCK steps."""
        step = self._step
        t0 = time.perf_counter_ns()
        for key in range(REF_BLOCK):
            step(key)
        return (time.perf_counter_ns() - t0) / REF_BLOCK


class ReferenceClock:
    """Wall time re-expressed at the reference speed.

    Each :meth:`tick` times one reference block and credits the wall time
    since the previous tick at the speed the median of the latest
    REF_SMOOTH blocks measured, so an interval in which the host ran slow
    counts for less.  Call it often on the thread that does the measured
    work: the closer the blocks, the closer the speed they measure is to the
    speed the work ran at.
    """

    def __init__(self) -> None:
        self._reference = Reference()
        self.times = [time.perf_counter()]
        self.scaled = [0.0]
        self.blocks: list[float] = []

    def tick(self) -> None:
        self.blocks.append(self._reference.block_ns())
        now = time.perf_counter()
        speed = REF_NS / statistics.median(self.blocks[-REF_SMOOTH:])
        self.scaled.append(self.scaled[-1] + (now - self.times[-1]) * speed)
        self.times.append(now)

    def between(self, start: float, end: float) -> float:
        """Reference-speed seconds between two perf_counter readings."""
        at = np.interp((start, end), self.times, self.scaled)
        return float(at[1] - at[0])


class PhaseError(RuntimeError):
    """A benchmark process failed or did not answer in time."""


def peak_rss_mb() -> float:
    """Peak resident set of the calling process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_main(target: Callable[..., dict], conn: Any, *args: Any) -> None:
    """Run ``target(conn, *args)`` in a child and send back its result dict."""
    try:
        result = target(conn, *args)
    except BaseException:  # noqa: BLE001 - reported to the parent, then re-raised
        conn.send({"error": traceback.format_exc()})
        raise
    result.setdefault("peak_rss_mb", peak_rss_mb())
    conn.send(result)


class Child:
    """One spawned process and the pipe end the parent talks through."""

    def __init__(self, target: Callable[..., dict], *args: Any) -> None:
        self.conn, child_conn = CTX.Pipe()
        self.proc = CTX.Process(target=child_main, args=(target, child_conn, *args))
        self.proc.start()
        child_conn.close()

    def send(self, message: Any) -> None:
        self.conn.send(message)

    def recv(self, timeout: float = GRACE_S) -> Any:
        if not self.conn.poll(timeout):
            raise PhaseError(f"{self.proc.name} did not answer within {timeout:.0f} s")
        try:
            message = self.conn.recv()
        except EOFError as exc:
            raise PhaseError(f"{self.proc.name} exited (code {self.proc.exitcode})") from exc
        if isinstance(message, dict) and "error" in message:
            raise PhaseError(message["error"])
        return message

    def stop(self) -> None:
        """Wait for the process to end, ending it if it overstays.

        Closing the pipe first ends a child still waiting for a message
        (the run failed elsewhere) at once, with ``EOFError``.
        """
        self.conn.close()
        self.proc.join(GRACE_S)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(5.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def stop_resource_tracker() -> None:
    """End this process's shared-memory resource tracker and wait for it.

    Starting a ``spawn`` child starts the tracker as a child of this
    process.  Left alone it ends only some time after this process does,
    once it has read the end of its pipe, so it would outlive the run.
    Call this after every :class:`Child` has been stopped: the tracker ends
    when the last holder of its pipe closes it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is None:
        return
    os.close(tracker._fd)
    tracker._fd = None
    if tracker._pid is not None:
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def wait_until(deadline: float) -> None:
    """Sleep until ``deadline`` (a perf_counter reading)."""
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


@dataclass
class PhaseResult:
    """What one phase hands back to the orchestrator.

    ``metrics`` maps metric names to values; ``raw`` holds figures printed
    for the record but not gated: rates before scaling to the reference
    speed, the reference step, the fleet's 99th percentiles;
    ``attempted``/``failed`` count beats; ``failures`` holds the text of
    every failure; ``problems`` the output checks that did not hold.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def thread_cpu_seconds(name_prefix: str) -> float:
    """CPU seconds used so far by the first live thread whose name starts so."""
    for thread in threading.enumerate():
        if thread.name.startswith(name_prefix) and thread.ident is not None:
            return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
    raise PhaseError(f"no thread named {name_prefix}*")

"""Discrete-event simulation core.

The engine keeps a priority queue of timestamped callbacks.  Everything
else in the library (bus transactions, on-board processors, interrupt
handlers, protocol threads) is built on top of this single event loop,
either directly via :meth:`Simulator.call_at` or through the
generator-based processes in :mod:`repro.sim.process`.

Time is measured in **microseconds** throughout the library.  The paper
reasons about costs in microseconds and 40 ns bus cycles, so a float
microsecond clock gives comfortable resolution (a 25 MHz cycle is
0.04 us) without the bookkeeping of integer picoseconds.

The queue is a plain heap of ``[time, key, seq, callback]`` entries:

* ``key`` is an *ordering key* that breaks same-time ties **by
  content** instead of by insertion order.  Ordinary events use the
  empty tuple and therefore order by ``seq`` (schedule order), exactly
  as before.  Events that cross a boundary between independently
  running simulators -- cells arriving at a switch, returning credits
  -- carry a ``(channel..., channel_seq)`` key, so their order at a
  merge point is the same whether they were scheduled locally or
  delivered from another shard's mailbox.  This is what makes the
  sharded cluster runs of :mod:`repro.sim.parallel` bit-identical to
  single-process runs.
* ``seq`` is unique, so a comparison never reaches the callback.  An
  entry whose callback slot is ``None`` is dead: :meth:`Timer.cancel`
  clears the slot of a pending entry, and the loop clears it when the
  entry fires, so cancelling a timer that already fired does nothing.
  Dead entries are skipped lazily on pop; a dead counter keeps
  :attr:`Simulator.pending` O(1) and exact, and the heap is filtered in
  place whenever more than half of it is dead, so cancel-heavy models
  do not accumulate garbage.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

# Ordinary events carry the empty ordering key: at equal times they
# sort before any keyed (boundary) event and among themselves by
# schedule order.
NO_KEY: tuple = ()
# run()'s horizon: every comparison with NaN is false, so no event --
# not even one at +inf -- is "at or past" it.
_NO_HORIZON = float("nan")

# Compaction policy: filter the heap once it holds this many entries
# and more than half of them are dead (cancelled).
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


# Installed by repro.analysis.sanitize: when set, every Simulator
# constructed afterwards owns a sanitizer instance whose on_event /
# window_begin / window_end hooks watch for monotone-time and
# shard-horizon violations.  None (the default) costs one local
# check per event.
_sanitizer_factory: Optional[Callable[[], object]] = None


def set_sanitizer_factory(factory: Optional[Callable[[], object]]) -> None:
    """Install (or clear) the per-Simulator sanitizer factory."""
    global _sanitizer_factory
    _sanitizer_factory = factory


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("_sim", "_entry", "_cancelled")

    def __init__(self, sim: "Simulator", entry: list):
        self._sim = sim
        self._entry = entry
        self._cancelled = False

    @property
    def time(self) -> float:
        """Absolute simulation time at which the callback fires."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` stopped the callback from running."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running.

        Idempotent, and a no-op once the callback has fired: the
        entry's callback slot is already clear either way.
        """
        entry = self._entry
        if entry[3] is None:
            return
        entry[3] = None
        self._cancelled = True
        sim = self._sim
        sim._dead += 1
        if (len(sim._heap) >= _COMPACT_MIN
                and sim._dead * 2 > len(sim._heap)):
            sim._compact()


class Simulator:
    """The event loop.

    A single :class:`Simulator` instance is shared by every component of
    one experiment (or, in a sharded run, by every component of one
    *shard*).  Components schedule work with :meth:`call_at` /
    :meth:`call_after` and the experiment driver advances time with
    :meth:`run`, :meth:`run_until`, or -- for conservatively
    synchronized shards -- :meth:`run_window`.

    :attr:`now` is the current simulation time in microseconds.  It is
    a plain attribute for speed; only the kernel writes it.
    """

    def __init__(self) -> None:
        self._heap: list[list] = []     # [time, key, seq, callback]
        self._seq = itertools.count()
        self._dead = 0                  # cancelled entries still queued
        self.now = 0.0
        self._running = False
        # Events executed.  The inline loop adds its count when a run
        # call returns.
        self.events_processed = 0
        # Per-cell operations a fast path (repro.sim.trains) folded
        # into arithmetic instead of heap events.  events_processed +
        # events_absorbed is the *model* event count -- comparable
        # across train and per-cell runs of the same workload.
        self.events_absorbed = 0
        self._last_event_time = 0.0
        # Latest model time a fast path computed arithmetically (a
        # folded serialization or drain completion).  Folded work can
        # postdate every heap event -- e.g. a cell lost on the wire
        # whose serialization delay was the run's final occurrence --
        # so `now` is bumped to this on drain and `last_event_time`
        # reports the max of both.
        self._model_last = 0.0
        self.sanitizer = (_sanitizer_factory()
                          if _sanitizer_factory is not None else None)

    @property
    def last_event_time(self) -> float:
        """Timestamp of the last event executed *or* folded -- unlike
        `now`, never advanced by run_until/advance_to clamping.  Exact
        between run calls."""
        if self._model_last > self._last_event_time:
            return self._model_last
        return self._last_event_time

    def note_model_time(self, time: float) -> None:
        """Record that folded (non-event) model work occurred at
        ``time``.  Fast paths call this for every per-cell operation
        they absorb, so quiescence time matches the per-cell run."""
        if time > self._model_last:
            self._model_last = time

    def call_at(self, time: float, callback: Callable[[], None],
                key: tuple = NO_KEY) -> Timer:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``key`` is the same-time ordering key (see module docstring);
        leave it empty for ordinary events.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self.now})"
            )
        entry = [time, key, next(self._seq), callback]
        heappush(self._heap, entry)
        return Timer(self, entry)

    def call_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined call_at: a non-negative delay cannot land in the
        # past, and this is the process kernel's per-yield path.
        entry = [self.now + delay, NO_KEY, next(self._seq), callback]
        heappush(self._heap, entry)
        return Timer(self, entry)

    def call_now(self, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self.call_at(self.now, callback)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) queued entries -- O(1)."""
        return len(self._heap) - self._dead

    def _compact(self) -> None:
        """Filter dead entries out of the heap.  In place: a running
        event loop holds a reference to the list."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[3] is not None]
        heapify(heap)
        self._dead = 0

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Run the single next event.  Returns False when queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            callback = entry[3]
            if callback is None:
                self._dead -= 1
                continue
            entry[3] = None
            time = entry[0]
            self.now = time
            self._last_event_time = time
            self.events_processed += 1
            if self.sanitizer is not None:
                self.sanitizer.on_event(time)
            callback()
            return True
        return False

    def _drive(self, horizon: float, limit: int) -> int:
        """The event loop: run events strictly below ``horizon``, at
        most ``limit`` of them (0: no limit).  Returns the count.

        Inline rather than a :meth:`step` per event.  The event count
        and the last event time are written back when it returns.
        """
        heap = self._heap
        sanitizer = self.sanitizer
        count = 0
        last = self._last_event_time
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time >= horizon:
                    break
                heappop(heap)
                callback = entry[3]
                if callback is None:
                    self._dead -= 1
                    continue
                entry[3] = None
                self.now = last = time
                count += 1
                if sanitizer is not None:
                    sanitizer.on_event(time)
                callback()
                if count == limit:
                    break
        finally:
            self.events_processed += count
            self._last_event_time = last
        return count

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events executed, so callers can tell a
        drained queue from an exhausted budget: the queue drained iff
        the return value is below ``max_events`` (always, when no
        budget was given).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            limit = 0 if max_events is None else max(max_events, 1)
            count = self._drive(_NO_HORIZON, limit)
            if limit and count == limit:
                return count
            # Drained.  Folded model work may postdate the last heap
            # event; land the clock where the per-cell run would.
            if self._model_last > self.now:
                self.now = self._model_last
            return count
        finally:
            self._running = False

    def run_until(self, time: float) -> None:
        """Run events with timestamps <= ``time``; advance clock to ``time``."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            while True:
                nxt = self.peek()
                if nxt is None or nxt > time:
                    break
                self.step()
            self.now = max(self.now, time)
        finally:
            self._running = False

    def run_window(self, horizon: float) -> int:
        """Run events with timestamps strictly below ``horizon``.

        This is the conservative-synchronization primitive: a shard
        runs one window, then exchanges boundary messages with its
        peers before the horizon advances.  Unlike :meth:`run_until`
        the clock is *not* clamped to the horizon -- ``now`` stays at
        the last executed event, so an idle shard's clock (and its
        hosts' statistics) match what a single-process run would show.
        Returns the number of events executed.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        if self.sanitizer is not None:
            self.sanitizer.window_begin(horizon)
        try:
            return self._drive(horizon, 0)
        finally:
            if self.sanitizer is not None:
                self.sanitizer.window_end()
            self._running = False

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without running events.

        Used after a sharded run terminates: every shard's clock is
        fast-forwarded to the fabric-wide last event time so snapshots
        (host statistics, reports) read one consistent instant.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if time > self.now:
            nxt = self.peek()
            if nxt is not None and nxt < time:
                raise SimulationError(
                    f"advance_to({time}) would skip an event at {nxt}")
            self.now = time

    def run_while(self, predicate: Callable[[], bool],
                  max_events: int = 50_000_000) -> None:
        """Run while ``predicate()`` is true and events remain."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            count = 0
            while predicate():
                if not self.step():
                    return
                count += 1
                if count >= max_events:
                    raise SimulationError(
                        f"run_while exceeded {max_events} events; "
                        "likely a livelock in the model"
                    )
        finally:
            self._running = False


__all__ = ["Simulator", "SimulationError", "Timer", "NO_KEY",
           "set_sanitizer_factory"]

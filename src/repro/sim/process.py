"""Generator-based simulation processes.

A *process* is a Python generator that yields *commands* to the process
kernel.  The host side of the paper -- interrupt handlers, driver
threads, protocol code -- is written as processes that explicitly spend
simulated time.  The per-cell hot path is not: the on-board i960 loops
(:mod:`repro.osiris.tx_processor`, :mod:`repro.osiris.rx_processor`),
the DMA transactions and the switch drain are callback state machines
that use the same awaitables through ``_add_waiter`` and schedule the
same events a process would.

Supported commands (anything a process may ``yield``):

* a bare ``float`` -- advance simulated time by that many
  microseconds.  This is the hot-path form: the kernel tests
  ``type(command)`` first and allocates nothing for it.  A negative
  value raises :class:`SimulationError` inside the process, at the
  ``yield``.  An ``int`` is not a delay (it is rejected like any
  unsupported command); use :class:`Delay` for integral durations.
* :class:`Delay` -- the same, as an object (validated when built).
* :class:`Signal` (yield it directly) -- block until the signal fires;
  the value passed to :meth:`Signal.fire` becomes the yield's value.
* :class:`Process` (yield it directly) -- join another process; its
  return value becomes the yield's value, also when it already ended.
* ``None`` -- reschedule immediately (a cooperative yield point).

Resources (:mod:`repro.sim.resources`) provide further awaitables.

Every form schedules exactly one event per timed resume (none for a
wake-up that is granted synchronously), so choosing ``yield 1.5`` over
``yield Delay(1.5)`` never changes the event schedule -- see DESIGN.md
section 14.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .core import SimulationError, Simulator

ProcessGen = Generator[Any, Any, Any]


class Delay:
    """Command: suspend the process for ``duration`` microseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative delay {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration})"


class Signal:
    """A broadcast wake-up point.

    Processes that yield a Signal block until :meth:`fire` is called;
    all current waiters wake with the fired value.  A Signal has no
    memory: firing with no waiters is a no-op (see :class:`Latch` for
    the sticky variant).
    """

    def __init__(self, name: str = "signal"):
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self._subscribers: list[Callable[[Any], None]] = []
        self.fire_count = 0

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        self._waiters.append(resume)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register a persistent callback invoked on every fire."""
        self._subscribers.append(callback)

    def fire(self, value: Any = None) -> int:
        """Wake all waiters; returns how many were woken."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)
        for callback in list(self._subscribers):
            callback(value)
        return len(waiters)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Latch(Signal):
    """A sticky signal: once fired, subsequent waits return immediately."""

    def __init__(self, name: str = "latch"):
        super().__init__(name)
        self.fired = False
        self.value: Any = None

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.fired:
            resume(self.value)
        else:
            super()._add_waiter(resume)

    def fire(self, value: Any = None) -> int:
        self.fired = True
        self.value = value
        return super().fire(value)


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process:
    """A running generator, driven by the simulator.

    Yielding a Process from another process joins it.  The generator's
    ``return`` value is exposed as :attr:`result` once :attr:`done`.
    """

    def __init__(self, sim: Simulator, gen: ProcessGen, name: str = "proc"):
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done = False
        self.failed = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Built on the first join only: most processes (one per rx DMA
        # command) are never joined.
        self._done_latch: Optional[Latch] = None
        self._pending_timer = None
        # The one callback every timed resume and every wake-up uses;
        # bound once so a yield allocates no closure.
        self._resume = self._step
        sim.call_now(self._resume)

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # Duck-typed with Signal so `yield process` joins it.
        if self.done:
            resume(self.result)
            return
        if self._done_latch is None:
            self._done_latch = Latch(f"{self.name}.done")
        self._done_latch._add_waiter(resume)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point."""
        if self.done:
            return
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        self._throw(Interrupted(cause))

    def _throw(self, exc: BaseException) -> None:
        try:
            command = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupted:
            self._finish(None)
            return
        except BaseException as err:  # propagate model bugs loudly
            self._fail(err)
            raise
        self._dispatch(command)

    def _step(self, value: Any = None) -> None:
        self._pending_timer = None
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            self._fail(err)
            raise
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        kind = type(command)
        if kind is float:
            if command < 0:
                # Raised at the yield, as Delay(command) would have
                # raised where the process built it.
                self._throw(SimulationError(f"negative delay {command}"))
                return
            self._pending_timer = self.sim.call_after(command, self._resume)
        elif kind is Delay:
            self._pending_timer = self.sim.call_after(
                command.duration, self._resume)
        elif command is None:
            self._pending_timer = self.sim.call_now(self._resume)
        elif hasattr(command, "_add_waiter"):
            command._add_waiter(self._resume)
        else:
            err = SimulationError(
                f"process {self.name!r} yielded unsupported {command!r}")
            self._fail(err)
            raise err

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        if self._done_latch is not None:
            self._done_latch.fire(result)

    def _fail(self, err: BaseException) -> None:
        self.done = True
        self.failed = True
        self.error = err
        if self._done_latch is not None:
            self._done_latch.fire(None)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


def spawn(sim: Simulator, gen: ProcessGen, name: str = "proc") -> Process:
    """Start ``gen`` as a process on ``sim``."""
    return Process(sim, gen, name)


def all_of(sim: Simulator, processes: Iterable[Process]) -> Process:
    """A process that completes when every process in the list has."""

    def waiter() -> ProcessGen:
        results = []
        for proc in processes:
            results.append((yield proc))
        return results

    return spawn(sim, waiter(), "all_of")


__all__ = [
    "Delay", "Signal", "Latch", "Process", "Interrupted", "spawn", "all_of",
]

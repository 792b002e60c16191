"""The OSIRIS DMA controllers.

Each half of the board has one controller.  The controller enforces
the transfer-length discipline of section 2.5:

* ``SINGLE_CELL`` -- every transaction is at most one AAL payload
  (44 bytes), the board's original design.
* ``DOUBLE_CELL`` -- up to two payloads (88 bytes) when the on-board
  processor decides two consecutive cells land contiguously; the
  modification that raised the receive ceiling to 587 Mbps.
* ``ARBITRARY`` -- the "ideal" controller the paper deemed too complex
  for the available programmable logic; kept for ablations.

Independently, the page-boundary modification (section 2.5.2) makes a
transaction stop early at a page boundary, so a partially filled cell
at the end of one buffer can be completed from the start of the next.
:meth:`DmaController.max_burst` exposes exactly that rule to the
on-board processors.

A transaction is a :class:`DmaTransaction`: a chain of callbacks
(engine grant, bus grant, bus hold, release, copy, completion) rather
than a generator process, so the on-board processors' per-cell DMA
commands cost no process machinery.  The engine is a busy flag and a
FIFO of waiting transactions; the bus stays a shared
:class:`~repro.sim.Resource` because CPU traffic contends for it too.
:meth:`DmaController.read_host` and :meth:`~DmaController.write_host`
are generator methods that start one transaction and wait on it.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Generator, Optional

from ..sim import Fidelity, SimulationError, Simulator
from .bus import PRIO_DMA, TurboChannel
from .cache import DataCache
from .memory import PhysicalMemory
from .specs import AAL_PAYLOAD_BYTES


class DmaMode(enum.Enum):
    SINGLE_CELL = "single"
    DOUBLE_CELL = "double"
    ARBITRARY = "arbitrary"

    @property
    def max_bytes(self) -> Optional[int]:
        if self is DmaMode.SINGLE_CELL:
            return AAL_PAYLOAD_BYTES
        if self is DmaMode.DOUBLE_CELL:
            return 2 * AAL_PAYLOAD_BYTES
        return None


class DmaController:
    """One direction's DMA engine.

    The engine itself is a pure bus client; the bus resource inside
    :class:`TurboChannel` provides serialization against the other
    half's engine and (on the DECstation) against CPU memory traffic.
    """

    def __init__(self, sim: Simulator, tc: TurboChannel,
                 memory: PhysicalMemory, cache: Optional[DataCache],
                 mode: DmaMode = DmaMode.SINGLE_CELL,
                 page_boundary_stop: bool = True,
                 page_size: int = 4096,
                 fidelity: Optional[Fidelity] = None,
                 sgmap=None):
        self.sim = sim
        self.tc = tc
        self.memory = memory
        self.cache = cache
        self._mode = mode
        # The mode's length cap (None: uncapped), read per transaction.
        self.max_bytes = mode.max_bytes
        self.page_boundary_stop = page_boundary_stop
        self.page_size = page_size
        self.fidelity = fidelity or Fidelity.full()
        # Optional scatter/gather map (section 2.2): addresses above
        # its IO_BASE are translated per transaction.
        self.sgmap = sgmap
        self.transactions = 0
        self.bytes_moved = 0
        # The controller issues one bus transaction at a time; queued
        # commands wait *in the controller*, so bus arbitration sees at
        # most one pending DMA request and other agents (host PIO, CPU
        # memory traffic on a shared-path machine) interleave fairly.
        # Only transactions use the engine, so it is a busy flag plus a
        # FIFO of waiting transactions rather than a Resource.
        self.busy = False
        self.waiting: deque[DmaTransaction] = deque()
        # Bus hold per transfer size (the bus spec is frozen).
        self._read_holds: dict[int, float] = {}
        self._write_holds: dict[int, float] = {}

    @property
    def mode(self) -> DmaMode:
        """The transfer-length discipline, fixed at construction."""
        return self._mode

    def max_burst(self, addr: int, wanted: int) -> int:
        """Longest legal transaction starting at ``addr``.

        Applies the mode's length cap and, when enabled, the
        stop-at-page-boundary rule of section 2.5.2.
        """
        if wanted <= 0:
            raise SimulationError("DMA burst must move at least one byte")
        allowed = wanted
        cap = self.max_bytes
        if cap is not None:
            allowed = min(allowed, cap)
        if self.page_boundary_stop:
            to_boundary = self.page_size - (addr % self.page_size)
            allowed = min(allowed, to_boundary)
        return allowed

    def _check(self, nbytes: int, addr: int) -> None:
        cap = self.max_bytes
        if cap is not None and nbytes > cap:
            raise SimulationError(
                f"{self._mode.value} DMA cannot move {nbytes} bytes")
        if self.page_boundary_stop:
            to_boundary = self.page_size - (addr % self.page_size)
            if nbytes > to_boundary:
                raise SimulationError(
                    f"DMA would cross a page boundary at {addr:#x}")

    def write_host(self, addr: int,
                   data: Optional[bytes] = None,
                   nbytes: Optional[int] = None
                   ) -> Generator[Any, Any, None]:
        """Receive direction: move cell payload into host memory."""
        if data is None and nbytes is None:
            raise SimulationError("write_host needs data or nbytes")
        length = len(data) if data is not None else int(nbytes)
        yield DmaTransaction(self, addr, length, True, data)

    def read_host(self, addr: int, nbytes: int
                  ) -> Generator[Any, Any, bytes]:
        """Transmit direction: pull bytes from host memory."""
        return (yield DmaTransaction(self, addr, nbytes, False))


class DmaTransaction:
    """One DMA transaction, driven by callbacks from the moment it is
    built: engine grant, bus grant, bus hold, bus release, engine
    release, data copy, completion.

    ``write`` moves ``nbytes`` into host memory (receive direction),
    copying ``data`` when there is any; otherwise the transaction reads
    ``nbytes`` from host memory and :attr:`result` is the bytes.
    ``on_done`` is called with the transaction when it completes.  A
    process joins it with ``yield transaction`` (before or after it
    completes), which returns :attr:`result`.

    A free engine starts the transaction at once; a busy one queues it
    in the controller's FIFO, and the finishing transaction starts the
    queue head synchronously after releasing the bus.  The bus is
    granted through its ``try_acquire``/``request`` pair, also
    synchronously, so a transaction schedules exactly one event, its
    bus hold.  Memory and cache are written at completion, after both
    releases, not at issue.
    """

    __slots__ = ("dma", "addr", "nbytes", "data", "write", "on_done",
                 "done", "result", "_waiters")

    def __init__(self, dma: DmaController, addr: int, nbytes: int,
                 write: bool, data: Optional[bytes] = None,
                 on_done: Optional[Callable[["DmaTransaction"], None]] = None):
        dma._check(nbytes, addr)
        dma.transactions += 1
        dma.bytes_moved += nbytes
        self.dma = dma
        self.addr = addr
        self.nbytes = nbytes
        self.data = data
        self.write = write
        self.on_done = on_done
        self.done = False
        self.result: Optional[bytes] = None
        self._waiters: Optional[list] = None    # built on the first join
        if dma.busy:
            dma.waiting.append(self)
        else:
            dma.busy = True
            self._on_engine()

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        # Duck-typed with Signal so `yield transaction` joins it.
        if self.done:
            resume(self.result)
        elif self._waiters is None:
            self._waiters = [resume]
        else:
            self._waiters.append(resume)

    def _on_engine(self) -> None:
        tc = self.dma.tc
        if self.write:
            tc.dma_bytes_written += self.nbytes
        else:
            tc.dma_bytes_read += self.nbytes
        bus = tc.resource
        if bus.try_acquire():
            self._on_bus()
        else:
            bus.request(PRIO_DMA)._add_waiter(self._on_bus)

    def _on_bus(self, _grant: Any = None) -> None:
        dma = self.dma
        nbytes = self.nbytes
        holds = dma._write_holds if self.write else dma._read_holds
        hold = holds.get(nbytes)
        if hold is None:
            spec = dma.tc.spec
            hold = holds[nbytes] = (spec.dma_write_us(nbytes) if self.write
                                    else spec.dma_read_us(nbytes))
        dma.sim.call_after(hold, self._on_hold)

    def _on_hold(self) -> None:
        dma = self.dma
        dma.tc.resource.release()
        if dma.waiting:
            dma.waiting.popleft()._on_engine()
        else:
            dma.busy = False
        if dma.fidelity.copy_data:
            addr = self.addr
            if self.write:
                if self.data is not None:
                    if dma.cache is not None:
                        dma.cache.dma_write(addr, self.data)
                    else:
                        dma.memory.write(addr, self.data)
            elif dma.sgmap is not None and dma.sgmap.covers(addr):
                # Bursts never cross a page, so one translation covers
                # the whole transaction.
                self.result = dma.memory.read(dma.sgmap.translate(addr),
                                              self.nbytes)
            else:
                self.result = dma.memory.read(addr, self.nbytes)
        elif not self.write:
            self.result = b"\x00" * self.nbytes
        self.done = True
        if self.on_done is not None:
            self.on_done(self)
        if self._waiters is not None:
            for resume in self._waiters:
                resume(self.result)


__all__ = ["DmaController", "DmaMode", "DmaTransaction"]

"""Micro-benchmarks for the event engine's hot paths.

Three scenarios that dominate real model runs::

    python benchmarks/bench_sim_core.py

* throughput -- schedule-and-run a flat stream of events (the heap's
  steady state everywhere).
* cancel-heavy -- timers armed and cancelled before firing, the
  retransmit/watchdog pattern; exercises dead-entry compaction.
* pending-poll -- a model that checks ``sim.pending`` between events
  (the workload engine's completion test); must be O(1), not a scan.
* process-dispatch -- one process sleeping in a loop, yielding a
  ``Delay`` object or a bare float: the kernel's per-resume cost.
* resource-grant -- ``Resource.use`` in a loop, uncontended (one user:
  the inline grant) and contended (two users: every grant queued).
* dma-command -- the receive processor's DMA commands (one 44-byte
  transaction each, no data copy) issued back to back through the
  command-queue tokens: uncontended (one token: each command finds the
  engine and bus free) and contended (four tokens, the board's queue
  depth: every engine grant is queued).
* rx-loop -- the receive i960 loop end to end on a timing-only board:
  a fictitious-PDU source paces cells into the FIFO, the loop combines
  them into double-cell DMA commands, and the host's interrupt handler
  hands each filled buffer straight back to the free queue.
* tx-loop -- the transmit i960 loop end to end on a timing-only board:
  the host keeps four PDUs queued, the loop DMA-reads and emits every
  cell into a sink.

Each of the first rows is one operation per simulated event (a timed
resume or a bus hold); the two loop rows count cells, each several
events.  Rates are reported as M ops/s.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.hw import (  # noqa: E402
    DS5000_200, PhysicalMemory, TurboChannel,
)
from repro.hw.dma import DmaMode  # noqa: E402
from repro.osiris import (  # noqa: E402
    FLAG_END_OF_PDU, Descriptor, FictitiousPduSource, OsirisBoard,
    RxProcessor, TxProcessor,
)
from repro.osiris.rx_processor import _RxDmaCommand  # noqa: E402
from repro.sim import (  # noqa: E402
    Delay, Fidelity, Resource, Simulator, spawn,
)


def bench_throughput(n: int = 200_000) -> float:
    sim = Simulator()
    start = time.perf_counter()
    for i in range(n):
        sim.call_after(float(i % 97), lambda: None)
    sim.run()
    return time.perf_counter() - start


def bench_cancel_heavy(n: int = 200_000) -> float:
    sim = Simulator()

    def tick():
        # Arm a "retransmit timer", then the ack arrives and cancels
        # it -- the timer never fires, it only churns the heap.
        timer = sim.call_after(1000.0, lambda: None)
        timer.cancel()

    start = time.perf_counter()
    for _ in range(n):
        sim.call_after(1.0, tick)
    sim.run()
    return time.perf_counter() - start


def bench_pending_poll(n: int = 200_000) -> float:
    sim = Simulator()
    for i in range(n):
        sim.call_after(float(i % 97), lambda: None)
    start = time.perf_counter()
    while sim.pending:
        sim.step()
    return time.perf_counter() - start


def bench_dispatch_delay(n: int = 200_000) -> float:
    sim = Simulator()

    def sleeper():
        for _ in range(n):
            yield Delay(1.0)

    spawn(sim, sleeper())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_dispatch_float(n: int = 200_000) -> float:
    sim = Simulator()

    def sleeper():
        for _ in range(n):
            yield 1.0

    spawn(sim, sleeper())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def _bench_grants(users: int, n: int) -> float:
    sim = Simulator()
    bus = Resource(sim, "bus")

    def user():
        for _ in range(n // users):
            yield from bus.use(1.0)

    for _ in range(users):
        spawn(sim, user())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_grant_uncontended(n: int = 200_000) -> float:
    return _bench_grants(1, n)


def bench_grant_contended(n: int = 200_000) -> float:
    return _bench_grants(2, n)


def _bench_dma_commands(tokens_free: int, n: int) -> float:
    sim = Simulator()
    memory = PhysicalMemory(1024 * 1024, DS5000_200.page_size,
                            reserved_bytes=64 * 1024)
    board = OsirisBoard(sim, DS5000_200, TurboChannel(sim, DS5000_200.bus),
                        memory, None)
    rxp = RxProcessor(sim, board)
    tokens = rxp._dma_tokens
    while len(tokens) > tokens_free:
        tokens.try_get()

    def issuer():
        for _ in range(n):
            if not tokens.try_get()[0]:
                yield tokens.get()
            _RxDmaCommand(rxp, 0x10000, None, 44)

    spawn(sim, issuer())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_dma_uncontended(n: int = 200_000) -> float:
    return _bench_dma_commands(1, n)


def bench_dma_contended(n: int = 200_000) -> float:
    return _bench_dma_commands(4, n)


def _timing_board(rx_dma_mode: DmaMode = DmaMode.SINGLE_CELL):
    sim = Simulator()
    fidelity = Fidelity.timing_only()
    memory = PhysicalMemory(2 * 1024 * 1024, DS5000_200.page_size,
                            fidelity=fidelity, reserved_bytes=512 * 1024)
    board = OsirisBoard(sim, DS5000_200, TurboChannel(sim, DS5000_200.bus),
                        memory, None, fidelity=fidelity,
                        rx_dma_mode=rx_dma_mode)
    return sim, memory, board


def bench_rx_loop(n: int = 100_000) -> float:
    sim, memory, board = _timing_board(DmaMode.DOUBLE_CELL)
    board.bind_vci(1, 0)
    channel = board.kernel_channel
    size = board.spec.recv_buffer_bytes
    for _ in range(8):
        channel.free_queue.push(
            Descriptor(addr=memory.alloc_contiguous(size), length=size))

    def recycle(_kind, _channel_id):
        while True:
            desc = channel.recv_queue.pop(by_host=True)
            if desc is None:
                return
            channel.free_queue.push(Descriptor(addr=desc.addr, length=size))

    board.irq.register_handler(recycle)
    RxProcessor(sim, board, flow_controlled=True)
    # One full buffer per PDU: 372 cells, the last carrying the trailer.
    cells_per_pdu = size // 44
    FictitiousPduSource(sim, board, vci=1, pdu_bytes=size - 8,
                        pdu_count=-(-n // cells_per_pdu))
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_tx_loop(n: int = 100_000) -> float:
    sim, memory, board = _timing_board()
    channel = board.kernel_channel
    addr = memory.alloc_contiguous(4096)
    length = 4092                       # + trailer: 94 cells
    pdus = -(-n // 94)
    queued = 0

    def queue_one():
        nonlocal queued
        queued += 1
        channel.tx_queue.push(Descriptor(addr=addr, length=length,
                                         flags=FLAG_END_OF_PDU, vci=1))

    def sink(cell):
        if cell.eom and queued < pdus:
            queue_one()

    TxProcessor(sim, board, deliver=sink)
    for _ in range(4):
        queue_one()
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def main() -> int:
    print(f"cpu_count={os.cpu_count()}  best of 3")
    for name, fn, ops in (
            ("throughput", bench_throughput, 200_000),
            ("cancel-heavy", bench_cancel_heavy, 200_000),
            ("pending-poll", bench_pending_poll, 200_000),
            ("process-dispatch/delay", bench_dispatch_delay, 200_000),
            ("process-dispatch/float", bench_dispatch_float, 200_000),
            ("resource-grant/uncontended", bench_grant_uncontended, 200_000),
            ("resource-grant/contended", bench_grant_contended, 200_000),
            ("dma-command/uncontended", bench_dma_uncontended, 200_000),
            ("dma-command/contended", bench_dma_contended, 200_000),
            ("rx-loop", bench_rx_loop, 100_000),
            ("tx-loop", bench_tx_loop, 100_000)):
        wall = min(fn() for _ in range(3))
        print(f"{name:>27s}: {wall:6.3f} s  {ops:,} ops  "
              f"({ops / wall / 1e6:.2f} M ops/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

Each row is one operation per simulated event (a timed resume or a
bus hold), reported as M ops/s.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.hw import (  # noqa: E402
    DS5000_200, PhysicalMemory, TurboChannel,
)
from repro.osiris import OsirisBoard, RxProcessor  # noqa: E402
from repro.osiris.rx_processor import _RxDmaCommand  # noqa: E402
from repro.sim import Delay, Resource, Simulator, spawn  # noqa: E402


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


def main() -> int:
    print(f"cpu_count={os.cpu_count()}  best of 3, 200,000 ops per row")
    for name, fn in (("throughput", bench_throughput),
                     ("cancel-heavy", bench_cancel_heavy),
                     ("pending-poll", bench_pending_poll),
                     ("process-dispatch/delay", bench_dispatch_delay),
                     ("process-dispatch/float", bench_dispatch_float),
                     ("resource-grant/uncontended", bench_grant_uncontended),
                     ("resource-grant/contended", bench_grant_contended),
                     ("dma-command/uncontended", bench_dma_uncontended),
                     ("dma-command/contended", bench_dma_contended)):
        wall = min(fn() for _ in range(3))
        print(f"{name:>27s}: {wall:6.3f} s  "
              f"({200_000 / wall / 1e6:.2f} M ops/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

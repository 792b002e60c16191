"""Contracts of the callback data path: DMA transactions, receive DMA
commands, the switch port drain, the credit fast path and the event
kernel's timer handles."""

import pytest

from repro.atm.cell import Cell
from repro.atm.switch import CellSwitch
from repro.cluster.backpressure import CreditGate
from repro.hw import (
    DataCache, DmaController, DmaMode, DS5000_200, PhysicalMemory,
    TurboChannel,
)
from repro.hw.dma import DmaTransaction
from repro.osiris import RxProcessor
from repro.osiris.rx_processor import _RxDmaCommand
from repro.sim import Simulator, Store, spawn

from conftest import BoardRig

# DS5000/200 bus time of one 44-byte DMA write: 8 overhead cycles +
# 11 words at 40 ns.
WRITE_44_US = (8 + 11) * 0.04


def _dma_rig(mode=DmaMode.SINGLE_CELL):
    sim = Simulator()
    mem = PhysicalMemory(size_bytes=4 * 1024 * 1024, page_size=4096,
                         reserved_bytes=1024 * 1024)
    cache = DataCache(DS5000_200.cache, mem)
    tc = TurboChannel(sim, DS5000_200.bus)
    dma = DmaController(sim, tc, mem, cache, mode=mode, page_size=4096)
    return sim, mem, dma


# -- DMA transaction ------------------------------------------------------


def test_transaction_joined_before_and_after_completion():
    sim, mem, dma = _dma_rig()
    mem.write(0x2000, b"r" * 44)
    txn = DmaTransaction(dma, 0x2000, 44, False)
    seen = []

    def early():
        seen.append(("early", (yield txn), sim.now))

    spawn(sim, early())
    sim.run()
    assert txn.done
    late = []
    txn._add_waiter(late.append)        # already done: resumes at once
    assert late == [b"r" * 44]
    assert seen == [("early", b"r" * 44,
                     pytest.approx(DS5000_200.bus.dma_read_us(44)))]


def test_read_host_returns_the_bytes():
    sim, mem, dma = _dma_rig()
    mem.write(0x2000, b"abcd" * 11)
    got = []

    def proc():
        got.append((yield from dma.read_host(0x2000, 44)))

    spawn(sim, proc())
    sim.run()
    assert got == [b"abcd" * 11]
    assert dma.transactions == 1 and dma.tc.dma_bytes_read == 44


def test_queued_transactions_are_served_fifo_on_the_engine():
    sim, mem, dma = _dma_rig()
    done = []
    for i in range(3):
        DmaTransaction(dma, 0x2000 + 64 * i, 44, True, bytes([i]) * 44,
                       on_done=lambda t, i=i: done.append((i, sim.now)))
    # One holds the engine (and the bus); two wait in the controller.
    assert dma.engine.in_use == 1 and dma.engine.queue_length == 2
    sim.run()
    assert [i for i, _ in done] == [0, 1, 2]
    assert [t for _, t in done] == pytest.approx(
        [WRITE_44_US, 2 * WRITE_44_US, 3 * WRITE_44_US])
    assert dma.engine.in_use == 0 and dma.tc.resource.in_use == 0


def test_memory_and_cache_written_at_completion_not_issue():
    sim, mem, dma = _dma_rig()
    mem.write(0x2000, b"A" * 44)
    txn = DmaTransaction(dma, 0x2000, 44, True, b"B" * 44)
    midway = []
    sim.call_after(WRITE_44_US / 2,
                   lambda: midway.append(mem.read(0x2000, 44)))
    assert mem.read(0x2000, 44) == b"A" * 44
    sim.run()
    assert midway == [b"A" * 44]
    assert txn.done and mem.read(0x2000, 44) == b"B" * 44


# -- receive DMA command ------------------------------------------------------


def test_rx_command_returns_its_token_before_waking_joiners():
    rig = BoardRig()
    rxp = RxProcessor(rig.sim, rig.board)
    tokens = rxp._dma_tokens
    depth = len(tokens)
    assert tokens.try_get()[0]
    addr = rig.memory.alloc_contiguous(4096)
    # 20 bytes before a page boundary: the command needs two
    # transactions, chained by callback.
    command = _RxDmaCommand(rxp, addr + 4096 - 20, b"p" * 44, 44)
    seen = []

    def joiner():
        yield command
        seen.append((command.done, len(tokens)))

    spawn(rig.sim, joiner())
    rig.sim.run()
    assert seen == [(True, depth)]
    assert rig.board.rx_dma.transactions == 2
    assert rig.memory.read(addr + 4096 - 20, 44) == b"p" * 44
    late = []
    command._add_waiter(late.append)
    assert late == [None]


# -- switch port drain ----------------------------------------------------------


def test_cell_admitted_before_the_port_start_event_stays_queued():
    sim = Simulator()
    sw = CellSwitch(sim)
    delivered = []
    sw.add_trunk(0, lambda cell: delivered.append((cell.vci, sim.now)),
                 n_lanes=1)
    sw.add_route(10, 0)
    assert sim.pending == 1             # one start event per port
    sw.input_cell(Cell(vci=10, payload=b""))
    assert sw.port_depths(0) == [1]
    sim.step()                          # the start event serves it
    assert sw.port_depths(0) == [0] and sw.queued_cells() == 1
    sim.run()
    service = sw.switching_delay_us + sw.cell_time_us
    assert delivered == [(10, pytest.approx(service))]
    assert sw.queued_cells() == 0


def test_idle_port_wakes_on_enqueue_without_an_event():
    sim = Simulator()
    sw = CellSwitch(sim)
    delivered = []
    sw.add_trunk(0, lambda cell: delivered.append(sim.now), n_lanes=1)
    sw.add_route(10, 0)
    sim.run()                           # start event: port goes idle
    assert sim.pending == 0
    sim.call_at(5.0, lambda: sw.input_cell(Cell(vci=10, payload=b"")))
    sim.run()
    service = sw.switching_delay_us + sw.cell_time_us
    assert delivered == [pytest.approx(5.0 + service)]
    assert sim.events_processed == 3    # start, arrival, departure


# -- credit fast path -----------------------------------------------------------


def test_try_acquire_takes_free_credits_and_never_counts_a_stall():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(7, window=2)
    assert gate.try_acquire(99)         # ungated VCI
    assert gate.try_acquire(7) and gate.try_acquire(7)
    assert not gate.try_acquire(7)      # window exhausted
    assert gate.credits_outstanding() == 2 and gate.stalls == 0
    gate.refill(7)
    gate.pause(7, until_us=3.0)
    assert not gate.try_acquire(7)      # paused, credit kept
    assert gate.credits_outstanding() == 1


# -- kernel and Store -------------------------------------------------------------


def test_cancelling_a_fired_timer_does_nothing():
    sim = Simulator()
    fired = []
    first = sim.call_after(1.0, lambda: fired.append(1))
    sim.call_after(2.0, lambda: fired.append(2))
    assert sim.step()
    first.cancel()
    assert not first.cancelled
    assert sim.pending == 1
    sim.run()
    assert fired == [1, 2] and sim.pending == 0


def test_pending_stays_exact_through_cancel_and_compaction():
    sim = Simulator()
    timers = [sim.call_after(float(i + 1), lambda: None)
              for i in range(200)]
    live = 200
    for step, timer in enumerate(reversed(timers[50:])):
        timer.cancel()
        timer.cancel()                  # idempotent
        live -= 1
        assert sim.pending == live
        if step % 40 == 0:
            assert sim.step()           # fires one of timers[:50]
            live -= 1
            assert sim.pending == live
    timers[0].cancel()                  # fired: no effect
    assert sim.pending == live == 46
    assert len(sim._heap) < 150         # compacted along the way
    assert sim.run() == live and sim.pending == 0


def test_store_peek_reads_the_head_without_taking_it():
    sim = Simulator()
    store = Store(sim)
    assert store.peek() is None
    store.try_put("a")
    store.try_put("b")
    assert store.peek() == "a" and len(store) == 2
    assert store.try_get() == (True, "a")
    assert store.peek() == "b"


def test_run_lands_the_clock_on_folded_time_even_with_no_events():
    sim = Simulator()
    sim.note_model_time(5.0)
    assert sim.run() == 0
    assert sim.now == 5.0
    sim.call_after(1.0, lambda: None)
    sim.note_model_time(9.0)
    assert sim.run(max_events=1) == 1   # budget spent: no clamp
    assert sim.now == 6.0 and sim.last_event_time == 9.0

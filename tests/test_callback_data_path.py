"""Contracts of the callback data path: DMA transactions and the
controller's engine FIFO, receive DMA commands, the i960 transmit loop,
the cell pacers, the switch port drain, the credit fast path and
callback wait, and the event kernel's timer handles."""

import pytest

from repro.atm.cell import Cell
from repro.atm.switch import CellSwitch
from repro.cluster.backpressure import CreditGate
from repro.hw import (
    DataCache, DmaController, DmaMode, DS5000_200, PhysicalMemory,
    TurboChannel,
)
from repro.hw.dma import DmaTransaction
from repro.osiris import (
    FictitiousPduSource, FramedPduSource, RxProcessor, TxProcessor,
)
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
    assert dma.busy and len(dma.waiting) == 2
    sim.run()
    assert [i for i, _ in done] == [0, 1, 2]
    assert [t for _, t in done] == pytest.approx(
        [WRITE_44_US, 2 * WRITE_44_US, 3 * WRITE_44_US])
    assert not dma.busy and dma.tc.resource.in_use == 0


def test_engine_fifo_order_with_the_bus_contended_by_cpu_use():
    """The controller queues its own transactions and puts only one
    request on the bus at a time, so CPU traffic interleaves with the
    DMA stream instead of queueing behind all of it."""
    sim, mem, dma = _dma_rig()
    bus = dma.tc.resource
    order = []

    def cpu(tag):
        yield from bus.use(1.0)
        order.append((tag, sim.now))

    spawn(sim, cpu("cpu0"))
    sim.step()                          # cpu0 holds the bus until t=1
    for i in range(3):
        DmaTransaction(dma, 0x2000 + 64 * i, 44, True, bytes([i]) * 44,
                       on_done=lambda t, i=i: order.append((i, sim.now)))
    assert dma.busy and len(dma.waiting) == 2
    assert bus.queue_length == 1        # only the head asks for the bus
    spawn(sim, cpu("cpu1"))             # queues behind transaction 0
    sim.run()
    w = WRITE_44_US
    assert [tag for tag, _ in order] == ["cpu0", 0, "cpu1", 1, 2]
    assert [t for _, t in order] == pytest.approx(
        [1.0, 1.0 + w, 2.0 + w, 2.0 + 2 * w, 2.0 + 3 * w])
    assert not dma.busy and not dma.waiting and bus.in_use == 0


def test_mode_is_fixed_at_construction():
    _, _, dma = _dma_rig(DmaMode.DOUBLE_CELL)
    assert dma.mode is DmaMode.DOUBLE_CELL and dma.max_bytes == 88
    with pytest.raises(AttributeError):
        dma.mode = DmaMode.SINGLE_CELL
    assert dma.max_burst(0x2000, 200) == 88


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


# -- transmit loop and cell pacers ------------------------------------------------


def test_idle_tx_loop_parks_on_work_and_resumes_on_a_push():
    rig = BoardRig()
    sim = rig.sim
    cells = []
    txp = TxProcessor(sim, rig.board,
                      deliver=lambda c: cells.append((c.tx_index, sim.now)))
    assert sim.pending == 1             # one start event, as a process
    sim.run()
    assert sim.events_processed == 1 and txp.work.waiter_count == 1
    sim.call_at(10.0, lambda: rig.queue_pdu(b"w" * 40, vci=3))
    sim.run()
    # 40 data bytes + the 8-byte trailer: two cells, one 40-byte read.
    spec = rig.board.spec
    first = (10.0 + spec.tx_pdu_overhead_us
             + DS5000_200.bus.dma_read_us(40) + spec.tx_cell_us)
    assert cells == [(0, pytest.approx(first)),
                     (1, pytest.approx(first + spec.tx_cell_us))]
    assert txp.pdus_sent == 1 and txp.work.waiter_count == 1
    # Events: start, push, setup, read, two cell issues.
    assert sim.events_processed == 6


def test_framed_source_paces_cells_and_counts_rounds():
    rig = BoardRig()
    sim = rig.sim
    src = FramedPduSource(sim, rig.board, vci=1,
                          pdus=[b"a" * 100, b"b" * 30], repeat=2,
                          cell_pace_us=0.5)
    assert sim.pending == 1
    sim.run()
    # 100 bytes frame into 3 cells, 30 into 1: 4 per round, 2 rounds.
    fifo = rig.board.rx_fifo
    cells = [fifo.try_get()[1] for _ in range(len(fifo))]
    assert [(c.tx_index, c.eom) for c in cells] == \
        [(0, False), (1, False), (2, True), (0, True)] * 2
    assert cells[0].payload == b"a" * 44
    assert src.rounds_generated == 2
    assert sim.now == pytest.approx(8 * 0.5)
    assert sim.events_processed == 1 + 8    # start + one per cell


def test_fictitious_source_parks_on_a_full_fifo():
    rig = BoardRig()
    sim = rig.sim
    fifo = rig.board.rx_fifo
    depth = rig.board.spec.fifo_cells
    # 3072 data bytes + trailer frame into exactly 70 cells.
    src = FictitiousPduSource(sim, rig.board, vci=1, pdu_bytes=3072,
                              pdu_count=1, cell_pace_us=1.0)
    sim.run()
    # The cell after a full FIFO is built and paced, then parks.
    assert len(fifo) == depth and sim.now == depth + 1.0
    assert sim.pending == 0
    assert fifo.try_get()[0]            # a slot frees: admitted at once
    assert len(fifo) == depth and sim.pending == 1
    sim.run()
    assert sim.now == depth + 2.0 and src.pdus_generated == 0
    while fifo.try_get()[0]:
        sim.run()
    assert src.pdus_generated == 1 and sim.now == 70.0


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


def test_credit_wait_pause_branch_sleeps_until_the_cooldown_ends():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(7)                    # uncounted: EFCI pausing only
    gate.pause(7, until_us=4.0)
    woke = []
    gate.wait(7, lambda: woke.append(sim.now))
    assert woke == [] and gate.stalls == 1 and sim.pending == 1
    sim.run()
    assert woke == [4.0] and gate.stall_time_us == 4.0
    gate.wait(7, lambda: woke.append(sim.now))  # may emit: synchronous
    gate.wait(99, lambda: woke.append(-1))      # ungated: synchronous
    assert woke == [4.0, 4.0, -1] and gate.stalls == 1


def test_credit_wait_signal_branch_resumes_on_refill():
    sim = Simulator()
    gate = CreditGate(sim, regen_timeout_us=50.0)
    gate.open_vci(7, window=1)
    assert gate.try_acquire(7)
    woke = []
    gate.wait(7, lambda: woke.append(sim.now))
    assert gate.stalls == 1
    assert sim.pending == 1             # the armed regeneration timer
    sim.call_at(3.0, lambda: gate.refill(7))
    sim.run()
    assert woke == [3.0] and gate.stall_time_us == 3.0
    assert gate.credits_outstanding() == 1      # the refill was taken
    assert gate.regenerations == 0 and sim.now == 3.0  # timer cancelled


def test_credit_wait_released_when_its_vci_retires():
    sim = Simulator()
    gate = CreditGate(sim, watchdog_us=10.0)
    gate.open_vci(7, window=1)
    assert gate.try_acquire(7)
    woke = []
    gate.wait(7, lambda: woke.append(sim.now))
    sim.call_at(2.0, lambda: gate.retire_vci(7))
    sim.run()
    assert woke == [2.0] and gate.stalls == 1
    assert sim.now == 2.0               # the watchdog died with the flow


def test_acquire_is_a_process_view_of_wait():
    sim = Simulator()
    gate = CreditGate(sim)
    gate.open_vci(7, window=1)
    times = []

    def emitter():
        for _ in range(2):
            yield from gate.acquire(7)
            times.append(sim.now)

    spawn(sim, emitter())
    sim.call_at(5.0, lambda: gate.refill(7))
    sim.run()
    assert times == [0.0, 5.0] and gate.stalls == 1


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

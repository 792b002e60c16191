"""Event-schedule golden: runs pinned to the exact event.

The kernel may get faster, but it must not reorder same-time ties or
add, drop or move events: that would shift every report.  Two paper
points -- one Table 1 entry and one Figure 2 entry -- pin both the
number of heap events the run executes and the measured value to the
last bit, so a kernel change that alters the schedule fails here, by
name, before it reaches the paper comparison.  The cluster points and
the two board rigs pin the paths the paper points never take: credit
and EFCI stalls, interleaved transmit, and a flow-controlled receive
that runs out of buffers and fills its receive queue.
"""

import pytest

from repro.bench.harness import (
    measure_receive_throughput, measure_round_trip,
)
from repro.hw import DS5000_200
from repro.hw.dma import DmaMode
from repro.sim import Simulator


@pytest.fixture
def simulators(monkeypatch):
    """Every Simulator built inside the test, for its event counts."""
    built = []
    init = Simulator.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Simulator, "__init__", capturing)
    return built


def test_table1_ds5000_atm_1_byte_schedule(simulators):
    latency = measure_round_trip(DS5000_200, 1, protocol="atm", rounds=5)
    assert [sim.events_processed for sim in simulators] == [859]
    assert latency == 369.1806748971185


def test_figure2_double_cell_16kb_schedule(simulators):
    result = measure_receive_throughput(DS5000_200, 16 * 1024,
                                        dma_mode=DmaMode.DOUBLE_CELL)
    assert [sim.events_processed for sim in simulators] == [81545]
    assert (result.combined_dmas, result.single_dmas) == (12144, 396)
    assert result.mbps == 386.61973380595657


def test_contended_cluster_all2all_credit_schedule(simulators, capsys):
    """A contended fabric point: switch ports, credit gates and NIC
    FIFO overflow are all busy, so the drain loop, the receive DMA
    commands and the credit path each set same-time tie-breaks."""
    import hashlib
    import json

    from repro.cli import main

    main(["cluster", "--hosts", "4", "--pattern", "all2all",
          "--backpressure", "credit", "--messages", "3",
          "--size", "2048", "--json"])
    out = capsys.readouterr().out
    assert [sim.events_processed for sim in simulators] == [15022]
    assert [sim.events_absorbed for sim in simulators] == [1692]
    report = json.loads(out)
    assert sum(s["cells_switched"] for s in report["switches"]) == 1692
    assert (report["workload"]["messages_received"],
            report["workload"]["messages_sent"]) == (20, 36)
    assert sum(h["rx_fifo_drops"] for h in report["hosts"]) > 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == \
        "53e26a37102efed5"


def _cluster_schedule(simulators, capsys, argv):
    """Run ``repro cluster ... --json``; return (heap events, absorbed
    events, report, sha256 prefix of the report)."""
    import hashlib
    import json

    from repro.cli import main

    main(["cluster", *argv, "--json"])
    out = capsys.readouterr().out
    assert len(simulators) == 1
    sim = simulators[0]
    return (sim.events_processed, sim.events_absorbed, json.loads(out),
            hashlib.sha256(out.encode()).hexdigest()[:16])


def test_efci_incast_pause_schedule(simulators, capsys):
    """EFCI incast: the credit gate's pause branch (a timed stall until
    the cooldown ends) runs on every marked flow."""
    events, absorbed, report, digest = _cluster_schedule(
        simulators, capsys,
        ["--hosts", "8", "--pattern", "incast", "--backpressure", "efci",
         "--messages", "4", "--size", "8192"])
    gates = report["backpressure"]["hosts"]
    assert sum(g["stalls"] for g in gates) == 137
    assert sum(flow["pauses"] for g in gates
               for flow in g["flows"].values()) == 1680
    assert (events, absorbed) == (30276, 5236)
    assert (report["workload"]["messages_received"],
            report["workload"]["messages_sent"]) == (0, 28)
    assert digest == "30474750543a2c23"


def test_in_order_credit_incast_schedule(simulators, capsys):
    """In-order reassembly under credit: flows stall on an empty
    window and resume from the gate's signal when a credit returns."""
    events, absorbed, report, digest = _cluster_schedule(
        simulators, capsys,
        ["--hosts", "4", "--pattern", "incast", "--backpressure", "credit",
         "--messages", "4", "--size", "8192", "--segment", "in-order"])
    assert sum(g["stalls"] for g in report["backpressure"]["hosts"]) > 0
    assert (events, absorbed) == (18653, 2244)
    assert (report["workload"]["messages_received"],
            report["workload"]["messages_sent"]) == (3, 12)
    assert digest == "b574c39911b5fb75"


def _digest(rows):
    import hashlib
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_interleaved_two_channel_transmit_schedule():
    """The interleaved discipline: one cell from each channel's PDU in
    turn, double-cell DMA gathers, a multi-buffer PDU, a PDU queued
    while the loop is busy and one queued after it went idle, and both
    credit-gate stall branches (a timed EFCI pause and a window stall
    woken by a refill)."""
    from conftest import BoardRig

    from repro.cluster.backpressure import CreditGate
    from repro.osiris import TxProcessor

    rig = BoardRig(tx_dma_mode=DmaMode.DOUBLE_CELL)
    sim = rig.sim
    rig.board.open_channel(1)
    rig.board.open_channel(2)
    gate = CreditGate(sim)
    gate.open_vci(21, window=None)
    gate.open_vci(22, window=2)
    gate.pause(21, until_us=15.0)
    rows = []

    def deliver(cell):
        rows.append((cell.vci, cell.tx_index, cell.eom, sim.now))
        if cell.vci == 22:
            sim.call_after(5.0, lambda: gate.refill(22))

    txp = TxProcessor(sim, rig.board, deliver=deliver, interleave=True)
    txp.credit_gate = gate
    rig.queue_pdu(bytes(range(200)) + b"q" * 100, vci=21, channel_id=1)
    rig.queue_pdu(b"r" * 130, vci=21, channel_id=1, buffer_split=[50, 80])
    rig.queue_pdu(b"s" * 500, vci=22, channel_id=2)
    parked = []
    sim.call_at(20.0, lambda: (parked.append(txp.work.waiter_count),
                               rig.queue_pdu(b"k" * 90, vci=20)))
    sim.call_at(1999.0, lambda: parked.append(txp.work.waiter_count))
    sim.call_at(2000.0, lambda: rig.queue_pdu(b"late" * 30, vci=22,
                                              channel_id=2))
    sim.run()
    assert parked == [0, 1]             # busy at t=20, idle at t=1999
    assert txp.pdus_sent == 5 and txp.cells_sent == len(rows)
    assert gate.stalls > 0 and gate.stall_time_us > 0
    assert [vci for vci, *_ in rows[:5]] == [21, 21, 22, 22, 21]
    assert (len(rows), gate.stalls, sim.events_processed) == (29, 5, 70)
    assert sim.now == 2014.44
    assert _digest(rows) == "89dc47ead020e3e2"


def test_flow_controlled_receive_dry_buffers_and_full_queue_schedule():
    """A flow-controlled receive: the free buffers run dry (the loop
    parks on the free queue) and later the receive queue fills (it
    parks on the receive queue) until the host drains it."""
    from conftest import BoardRig

    from repro.osiris import FictitiousPduSource, RxProcessor

    rig = BoardRig()
    sim = rig.sim
    rig.board.bind_vci(1, 0)
    rig.feed_free_buffers(20)
    rxp = RxProcessor(sim, rig.board, flow_controlled=True)
    src = FictitiousPduSource(sim, rig.board, vci=1, pdu_bytes=100,
                              pdu_count=90)
    drained = []
    channel = rig.board.kernel_channel
    parked = []
    sim.call_at(300.0, lambda: (
        parked.append(channel.free_queue.became_nonempty.waiter_count),
        rig.feed_free_buffers(50)))
    sim.call_at(600.0, lambda: (
        parked.append(channel.recv_queue.became_nonfull.waiter_count),
        drained.extend(rig.drain_received()),
        rig.feed_free_buffers(30)))
    sim.run()
    drained.extend(rig.drain_received())
    assert src.pdus_generated == 90 and rxp.pdus_received == 90
    assert rxp.cells_dropped_no_buffer == 0
    assert parked == [1, 1]             # out of buffers, then queue full
    assert (len(drained), sim.events_processed) == (90, 1174)
    assert sim.now == 720.8999999999965
    assert _digest([(d.addr, d.length, d.flags) for d in drained]) == \
        "d7d4a10938a5e5d0"

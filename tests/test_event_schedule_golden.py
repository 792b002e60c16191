"""Event-schedule golden: two paper points pinned to the exact event.

The kernel may get faster, but it must not reorder same-time ties or
add, drop or move events: that would shift every report.  These two
points -- one Table 1 entry and one Figure 2 entry -- pin both the
number of heap events the run executes and the measured value to the
last bit, so a kernel change that alters the schedule fails here, by
name, before it reaches the paper comparison.
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

"""Per-layer metrics of the traced run, and the end-to-end metric each
one should move.

Times (``*_s``) are raw host seconds from the benchmark's spans;
``self_s`` is a span's time less its child spans.  Counts and simulated
values (``stall_us``, ``bus.utilization``) come from the model's own
reports.  ``sim.events_per_s`` is per nominal second, like
``cells_per_s``.
"""

from __future__ import annotations

from .tracing import Tracer

ALL = ("paper", "clos-all2all")
CLOS = ("clos-all2all",)

# name, unit, better, end-to-end metrics it should move, on which workloads
PER_LAYER = (
    ("sim.events", "count", "lower", ("cells_per_s",), ALL),
    ("sim.events_absorbed", "count", "higher", ("cells_per_s",), ALL),
    ("sim.events_per_s", "events/s", "higher", ("cells_per_s",), ALL),
    ("sim.schedule_calls", "count", "lower", ("cells_per_s",), ALL),
    ("sim.schedule_s", "s", "lower", ("cells_per_s",), ALL),
    ("sim.residual_s", "s", "lower", ("cells_per_s",), ALL),
    ("atm.link.cells", "count", "lower", ("cells_per_s", "peak_rss_mb"),
     CLOS),
    ("atm.link.self_s", "s", "lower", ("cells_per_s", "peak_rss_mb"), CLOS),
    ("sim.trains.absorbed_share", "ratio", "higher",
     ("cells_per_s", "peak_rss_mb"), CLOS),
    ("atm.switch.cells_switched", "count", "lower", ("cells_per_s",), CLOS),
    ("atm.switch.self_s", "s", "lower", ("cells_per_s",), CLOS),
    ("atm.switch.max_port_queue", "cells", "lower", ("cells_per_s",), CLOS),
    ("atm.switch.queue_full_drops", "count", "lower", ("cells_per_s",),
     CLOS),
    ("topology.queues.ops", "count", "lower", ("cells_per_s",), CLOS),
    ("topology.queues.self_s", "s", "lower", ("cells_per_s",), CLOS),
    ("cluster.backpressure.stalls", "count", "lower",
     ("sim_goodput_mbps", "delivered_ratio"), CLOS),
    ("cluster.backpressure.stall_us", "us", "lower",
     ("sim_goodput_mbps", "delivered_ratio"), CLOS),
    ("cluster.backpressure.self_s", "s", "lower",
     ("sim_goodput_mbps", "delivered_ratio"), CLOS),
    ("osiris.board.cells_accepted", "count", "higher", ("cells_per_s",),
     ("paper", "clos-all2all")),
    ("osiris.rx.fifo_drops", "count", "lower", ("delivered_ratio",), CLOS),
    ("osiris.board.self_s", "s", "lower", ("cells_per_s",),
     ("paper", "clos-all2all")),
    ("osiris.queues.ops", "count", "lower", ("cells_per_s",),
     ("paper", "clos-all2all")),
    ("osiris.queues.self_s", "s", "lower", ("cells_per_s",),
     ("paper", "clos-all2all")),
    ("osiris.interrupts_per_pdu", "ratio", "lower", ("cells_per_s",),
     ("paper", "clos-all2all")),
    ("atm.sar.self_s", "s", "lower", ("cells_per_s",), CLOS),
    ("atm.sar.loss_resyncs", "count", "lower", ("delivered_ratio",), CLOS),
    ("hw.dma.transactions", "count", "lower",
     ("cells_per_s", "paper_err_pct"), ("paper",)),
    ("hw.dma.combined_share", "ratio", "higher",
     ("cells_per_s", "paper_err_pct"), ("paper",)),
    ("hw.dma.self_s", "s", "lower", ("cells_per_s",), ("paper",)),
    ("hw.bus.utilization", "ratio", "lower", ("paper_err_pct",),
     ("paper",)),
    ("hw.bus.self_s", "s", "lower", ("cells_per_s",), ("paper",)),
    ("driver.pdus_delivered", "count", "higher", ("delivered_ratio",),
     CLOS),
    ("driver.rx_errors", "count", "lower", ("delivered_ratio",), CLOS),
    ("driver.self_s", "s", "lower", ("cells_per_s",), ("paper",)),
    # Measured on clos-all2all's --shards 2 repeat, which is checked
    # and traced but timed by no end-to-end metric.
    ("sim.parallel.windows", "count", "lower", (), CLOS),
    ("sim.parallel.barrier_s", "s", "lower", (), CLOS),
    ("cluster.boundary.msgs", "count", "lower", (), CLOS),
    ("cluster.boundary.bytes", "bytes", "lower", (), CLOS),
    ("cluster.boundary.codec_s", "s", "lower", (), CLOS),
    ("trace.overhead_s", "s", "lower", (), ()),
)

UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, parallel_tracer: Tracer, hosts: list,
                  switches: list, queue_full_drops: int, gates: list,
                  events: int, absorbed: int, untraced_run_s: float,
                  overhead_s: float, parallel: dict) -> dict:
    """Every per-layer metric, from the traced run's spans and the
    model's reports of that same run; the ``sim.parallel`` and
    ``cluster.boundary`` spans are ``parallel_tracer``'s."""
    pdus_rx = sum(h["pdus_received"] for h in hosts)
    pdus = pdus_rx + sum(h["pdus_sent"] for h in hosts)
    combined = sum(h["combined_dmas"] for h in hosts)
    dmas = combined + sum(h["single_dmas"] for h in hosts)
    schedule = ("sim.schedule:Simulator.call_at",
                "sim.schedule:Simulator.call_after",
                "sim.schedule:Simulator.call_now")
    values = {
        "sim.events": events,
        "sim.events_absorbed": absorbed,
        "sim.events_per_s": ratio(events, untraced_run_s),
        "sim.schedule_calls": tracer.span(schedule[0], "calls"),
        "sim.schedule_s": sum(tracer.span(name) for name in schedule),
        "sim.residual_s": tracer.layer("sim"),
        "atm.link.cells": tracer.layer("atm.link", "work"),
        "atm.link.self_s": tracer.layer("atm.link"),
        "sim.trains.absorbed_share": ratio(absorbed, events),
        "atm.switch.cells_switched": sum(s["cells_switched"]
                                         for s in switches),
        "atm.switch.self_s": tracer.layer("atm.switch"),
        "atm.switch.max_port_queue": max(
            (p["max_queue_seen"] for s in switches for p in s["ports"]),
            default=0),
        "atm.switch.queue_full_drops": queue_full_drops,
        "topology.queues.ops": tracer.layer("topology.queues", "calls"),
        "topology.queues.self_s": tracer.layer("topology.queues"),
        "cluster.backpressure.stalls": sum(g["stalls"] for g in gates),
        "cluster.backpressure.stall_us": sum(g["stall_time_us"]
                                             for g in gates),
        "cluster.backpressure.self_s": tracer.layer("cluster.backpressure"),
        "osiris.board.cells_accepted": sum(h["cells_received"]
                                           for h in hosts),
        "osiris.rx.fifo_drops": sum(h["rx_fifo_drops"] for h in hosts),
        "osiris.board.self_s": tracer.layer("osiris.board"),
        "osiris.queues.ops": tracer.layer("osiris.queues", "calls"),
        "osiris.queues.self_s": tracer.layer("osiris.queues"),
        "osiris.interrupts_per_pdu": ratio(
            sum(h["interrupts_serviced"] for h in hosts), pdus),
        "atm.sar.self_s": tracer.layer("atm.sar"),
        "atm.sar.loss_resyncs": tracer.errors.get(
            ("atm.sar:SequenceNumberReassembler.push", "LossDetected"), 0),
        "hw.dma.transactions": sum(h["tx_dma_transactions"]
                                   + h["rx_dma_transactions"]
                                   for h in hosts),
        "hw.dma.combined_share": ratio(combined, dmas),
        "hw.dma.self_s": tracer.layer("hw.dma"),
        "hw.bus.utilization": ratio(
            sum(h["bus_utilization"] for h in hosts), len(hosts)),
        "hw.bus.self_s": tracer.layer("hw.bus"),
        "driver.pdus_delivered": pdus_rx,
        "driver.rx_errors": sum(h["rx_errors"] for h in hosts),
        "driver.self_s": tracer.layer("driver"),
        "sim.parallel.windows": parallel.get("windows", 0),
        "sim.parallel.barrier_s": parallel_tracer.barrier_s,
        "cluster.boundary.msgs": parallel.get("boundary_msgs", 0),
        "cluster.boundary.bytes": parallel.get("boundary_bytes", 0),
        "cluster.boundary.codec_s": parallel_tracer.layer(
            "cluster.boundary"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name, *_ in PER_LAYER}

"""Cluster-wide metrics: one report for an N-host fabric run.

Aggregates every per-host ``net.stats`` snapshot and every switch's
per-port occupancy counters into a single :class:`ClusterReport`, and
checks the **cell-conservation invariant**: every cell handed to the
fabric is, at the instant of the snapshot, exactly one of delivered to
a host board, still queued/in flight inside the fabric, or dropped.
The four terms come from independent counters (links, switch ports,
delivery wrappers), so the identity actually cross-checks the models
rather than restating one number three ways.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .fabric import Fabric
from .workloads import WorkloadResult


@dataclass
class ClusterReport:
    """Everything a cluster run produced, in one structure."""

    topology: str
    n_hosts: int
    n_switches: int
    sim_time_us: float
    conservation: dict
    drops: dict = field(default_factory=dict)
    hosts: list = field(default_factory=list)
    switches: list = field(default_factory=list)
    workload: Optional[dict] = None
    backpressure: Optional[dict] = None
    faults: Optional[dict] = None
    recovery: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        # Deferred: repro.bench pulls in repro.net, which subclasses
        # our Fabric -- importing it at module scope would be circular.
        from ..bench.report import to_json
        return to_json(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable summary of the run."""
        lines = [
            f"Cluster: {self.n_hosts} hosts, {self.n_switches} "
            f"switch(es), {self.topology}, "
            f"t={self.sim_time_us:.1f} us",
        ]
        conservation = self.conservation
        fault_terms = ""
        if conservation.get("corrupted") or \
                conservation.get("lost_to_faults"):
            fault_terms = (
                f"corrupted {conservation['corrupted']}  "
                f"lost-to-faults {conservation['lost_to_faults']}  ")
        lines.append(
            "  cells: injected {injected}  delivered {delivered}  "
            "queued {queued}  dropped {dropped}  {faults}-> "
            "conservation {verdict}".format(
                verdict="holds" if conservation["holds"] else "VIOLATED",
                faults=fault_terms,
                **{k: conservation[k] for k in
                   ("injected", "delivered", "queued", "dropped")}))
        if self.faults:
            fl = self.faults
            dead = sum(1 for s in fl["sites"].values() if s["dead"])
            lines.append(
                f"  faults: {fl['lost_to_faults']} cells lost, "
                f"{fl['corrupted_delivered']} delivered corrupted, "
                f"{fl['credit_cells_lost']} credit cells lost, "
                f"{dead} dead lane(s)")
        if self.recovery:
            rc = self.recovery
            counters = rc["counters"]
            line = (f"  recovery: mode {rc['mode']}, "
                    f"{counters['elements_failed']} element(s) declared "
                    f"dead, {counters['flows_rerouted']} flow(s) "
                    f"rerouted, {counters['flows_unrecovered']} "
                    f"unrecovered")
            times = rc["recovery_time_us"]
            if times:
                line += (f"; recovery time p50 {times['p50']:.1f} us, "
                         f"p99 {times['p99']:.1f} us")
            lines.append(line)
        if self.drops and (self.drops.get("no_route")
                           or self.drops.get("queue_full")):
            lines.append(
                f"  drops: no-route {self.drops['no_route']}  "
                f"queue-full {self.drops['queue_full']}")
        for sw in self.switches:
            deepest = max((p["max_queue_seen"] for p in sw["ports"]),
                          default=0)
            lines.append(
                f"  {sw['name']}: {sw['cells_switched']} switched, "
                f"{sw['cells_dropped']} dropped, "
                f"max port queue {deepest}")
        if self.backpressure:
            bp = self.backpressure
            stalls = sum(h["stalls"] for h in bp["hosts"])
            stall_us = sum(h["stall_time_us"] for h in bp["hosts"])
            lines.append(
                f"  backpressure: {bp['mode']}, {stalls} stalls, "
                f"{stall_us:.1f} us stalled")
        for host in self.hosts:
            line = (f"  {host['name']:<4} pdus tx/rx "
                    f"{host['pdus_sent']:>5}/{host['pdus_received']:<5} "
                    f"cells tx/rx {host['cells_sent']:>6}/"
                    f"{host['cells_received']:<6} "
                    f"irqs {host['interrupts_serviced']}")
            # Receive-side losses the conservation line cannot show:
            # cells the board's FIFO overflowed, PDUs the driver
            # rejected.  Printed only when they happened.
            if host.get("rx_fifo_drops"):
                line += f"  rx-fifo drops {host['rx_fifo_drops']}"
            if host.get("rx_errors"):
                line += f"  rx errors {host['rx_errors']}"
            lines.append(line)
        if self.workload:
            wl = self.workload
            lines.append(
                f"  workload: {wl['kind']}/{wl['pattern']}, "
                f"{wl['clients']} clients, "
                f"{wl['messages_received']}/{wl['messages_sent']} "
                f"messages, {wl['goodput_mbps']:.1f} Mbps goodput")
            if "latency_us" in wl:
                lat = wl["latency_us"]
                lines.append(
                    f"  latency us: min {lat['min']:.1f}  median "
                    f"{lat['median']:.1f}  p99 {lat['p99']:.1f}  "
                    f"max {lat['max']:.1f}")
        return "\n".join(lines)


def collect(fabric: Fabric,
            workload: Optional[WorkloadResult] = None) -> ClusterReport:
    """Snapshot a fabric (and optional workload outcome) into a
    :class:`ClusterReport`."""
    switches = []
    for sw in fabric.switches:
        switches.append({
            "name": sw.name,
            "cells_switched": sw.cells_switched,
            "cells_dropped": sw.cells_dropped,
            "dropped_no_route": sw.dropped_no_route,
            "dropped_queue_full": sw.dropped_queue_full,
            "cross_cells_injected": sw.cross_cells_injected,
            "cells_lost_to_faults": sw.cells_lost_to_faults,
            "cells_queued": sw.queued_cells(),
            "ports": [asdict(p) for p in sw.port_stats()],
        })
    return ClusterReport(
        topology=fabric.topology,
        n_hosts=len(fabric.hosts),
        n_switches=len(fabric.switches),
        sim_time_us=fabric.sim.now,
        conservation=fabric.conservation(),
        drops=fabric.drop_breakdown(),
        hosts=[asdict(host.stats()) for host in fabric.hosts],
        switches=switches,
        workload=workload.summary() if workload else None,
        backpressure=fabric.backpressure_stats(),
        faults=fabric.fault_stats(),
        recovery=fabric.recovery_stats(),
    )


__all__ = ["ClusterReport", "collect"]

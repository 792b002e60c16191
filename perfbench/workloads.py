"""The two workloads: how each builds its rig, runs, and is checked.

Every function here drives the program through its public entry
points (``repro.bench``, ``repro.cluster``, ``repro.cluster.sharded``).
Host time is measured in nominal seconds (:mod:`perfbench.hostclock`),
with the raw seconds kept as ``wall_s``; simulated values are read
from the model's own reports and counters.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from repro.atm.aal5 import SegmentMode
from repro.bench import (
    MESSAGE_SIZES, PAPER_FIGURE_2, PAPER_FIGURE_3, PAPER_FIGURE_4,
    PAPER_TABLE_1, measure_receive_throughput, measure_round_trip,
    measure_transmit_throughput, message_count_for,
)
from repro.cluster import (
    Fabric, WorkloadResult, WorkloadSpec, collect,
    run_cluster_sharded, setup_workload,
)
from repro.driver.config import CachePolicyKind, DriverConfig
from repro.hw.dma import DmaMode
from repro.hw.specs import DEC3000_600, DS5000_200
from repro.net.host_node import Host
from repro.net.network import BackToBack
from repro.sim import Simulator

from .hostclock import HostClock

# A run at seed S covers the seed panel S, S+1000, ..., S+9000: per-seed
# delivery varies with the ECMP routes (55 to 104 of 448 over seeds
# 1-12, 18% standard deviation), so the delivery metrics pool ten
# seeds to read within a few percent from one run seed to the next.
PANEL_SIZE = 10
PANEL_STRIDE = 1000
SHARDS = 2
CLOS_HOSTS = 8
SETUP_REPEATS = 15
# The sharded repeat of a Clos run puts its two shards on the in-process
# backend.
# On the shared two-CPU machines this benchmark runs on, a proc-backend
# run is dominated by how fast an idle CPU wakes for each of its ~5,000
# barriers: the same run took 10.9 to 23.0 s, which no probe of CPU
# speed explains.  The inline backend runs the same window engine,
# boundary codec and per-shard fabrics without that wait.
SHARD_BACKEND = "inline"


def seed_panel(seed: int) -> list:
    return [seed + PANEL_STRIDE * i for i in range(PANEL_SIZE)]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Iteration:
    """One model run: what it cost in host time and what it simulated."""

    label: str
    seed: Optional[int] = None
    setup_s: float = 0.0            # nominal host seconds
    run_s: float = 0.0              # nominal host seconds
    wall_s: float = 0.0             # raw host seconds, set-up and run
    cells: int = 0                  # cell-hops, from the model's counters
    events: int = 0                 # heap events + events folded in trains
    absorbed: int = 0               # the folded part of ``events``
    attempted: int = 0              # application messages
    delivered: int = 0
    app_bytes: int = 0
    sim_us: float = 0.0
    report: str = ""                # canonical simulated report
    latency: dict = field(default_factory=dict)
    error: Optional[str] = None     # exception name and first line
    detail: dict = field(default_factory=dict)

    def row(self) -> dict:
        row = {"label": self.label, "seed": self.seed,
               "setup_s": self.setup_s, "run_s": self.run_s,
               "wall_s": self.wall_s,
               "cells": self.cells, "model_events": self.events,
               "attempted": self.attempted, "delivered": self.delivered,
               "app_bytes": self.app_bytes, "sim_us": self.sim_us,
               "report_sha256": digest(self.report) if self.report else None,
               "latency_us": self.latency}
        if self.error:
            row["error"] = self.error
        return row


def describe_error(exc: BaseException) -> str:
    first = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {first[0] if first else ''}"


# ---------------------------------------------------------------------------
# Cluster workloads
# ---------------------------------------------------------------------------

def clos_fabric_kwargs(seed: int) -> dict:
    """``repro cluster --topology clos --hosts 8 --backpressure credit``
    with every other CLI default pinned."""
    return {"machines": DS5000_200, "n_hosts": CLOS_HOSTS, "n_switches": 1,
            "segment_mode": SegmentMode.SEQUENCE, "topology": "clos",
            "pods": 4, "torus_dims": None, "oversubscription": 2.0,
            "routing_seed": seed, "backpressure": "credit",
            "credit_window_cells": 64, "drain_policy": "rr",
            "trains": True}


def clos_spec(seed: int) -> WorkloadSpec:
    """``--pattern all2all --size 4096 --messages 8``, unpaced."""
    return WorkloadSpec(pattern="all2all", kind="open", seed=seed,
                        message_bytes=4096, messages_per_client=8,
                        rate_mbps=0.0, arrival="constant",
                        requests_per_client=8)


def cluster_cells(report: dict) -> int:
    """Cell-hops: sent by a board, switched, or accepted by a board."""
    return (sum(h["cells_sent"] + h["cells_received"]
                for h in report["hosts"])
            + sum(s["cells_switched"] for s in report["switches"]))


def fill_from_report(it: Iteration, report_json: str, processed: int,
                     absorbed: int) -> None:
    report = json.loads(report_json)
    workload = report["workload"]
    it.report = report_json
    it.cells = cluster_cells(report)
    it.events = processed + absorbed
    it.absorbed = absorbed
    it.attempted = workload["messages_sent"]
    it.delivered = workload["messages_received"]
    it.app_bytes = workload["bytes_received"]
    it.sim_us = workload["elapsed_us"]
    latency = workload.get("latency_us", {})
    it.latency = {"p50": latency.get("median"), "p99": latency.get("p99"),
                  "samples": workload["messages_received"]}
    it.detail = report


def expected_messages(spec: WorkloadSpec) -> int:
    """Messages an all2all run attempts -- counted as failed if it raises."""
    return CLOS_HOSTS * (CLOS_HOSTS - 1) * spec.messages_per_client


def _build_plain(seed: int) -> tuple:
    fabric = Fabric(**clos_fabric_kwargs(seed))
    spec = clos_spec(seed)
    clients, finishers = setup_workload(fabric, spec)
    return fabric, spec, clients, finishers


def clos_build(seed: int) -> tuple:
    """Build the plain rig -- hosts, fabric, flows -- on a timed clock."""
    clock = HostClock()
    return (clock, *clock.time(_build_plain, seed))


def _run_to_quiescence(sim: Simulator, finishers: list) -> None:
    sim.run()
    for finish in finishers:
        finish()


def run_clos_plain(seed: int) -> Iteration:
    """One plain run, split at the first event into set-up and run.

    The run phase mirrors :func:`repro.cluster.run_workload` step for
    step; the benchmark checks that :func:`run_clos_sharded` at the
    same seed gives the same report bytes.
    """
    it = Iteration("plain", seed,
                   attempted=expected_messages(clos_spec(seed)))
    gc.collect()
    try:
        setup, fabric, spec, clients, finishers = clos_build(seed)
        clock = HostClock()
        sim_start = fabric.sim.now
        clock.time(_run_to_quiescence, fabric.sim, finishers)
        it.setup_s, it.run_s = setup.nominal_s, clock.nominal_s
        it.wall_s = setup.raw_s + clock.raw_s
        result = WorkloadResult(spec=spec, clients=clients,
                                elapsed_us=fabric.sim.now - sim_start)
        fill_from_report(it, collect(fabric, result).to_json(),
                         fabric.sim.events_processed,
                         fabric.sim.events_absorbed)
    except Exception as exc:
        it.error = describe_error(exc)
    return it


def run_clos_sharded(seed: int) -> Iteration:
    """One ``--shards 2`` run, timed as a whole (set-up included): it
    is checked against the plain run and traced, never gated on."""
    it = Iteration("sharded", seed,
                   attempted=expected_messages(clos_spec(seed)))
    gc.collect()
    try:
        clock = HostClock()
        report, run = clock.time(
            run_cluster_sharded, clos_fabric_kwargs(seed), clos_spec(seed),
            SHARDS, SHARD_BACKEND)
        it.run_s, it.wall_s = clock.nominal_s, clock.raw_s
        fill_from_report(it, report.to_json(), run.events_processed,
                         run.events_absorbed)
        it.detail["parallel"] = {
            "windows": run.windows, "boundary_msgs": run.boundary_msgs,
            "boundary_bytes": run.boundary_bytes}
    except Exception as exc:
        it.error = describe_error(exc)
    return it


def conservation_error(report: dict) -> Optional[str]:
    """None if the report's cell-conservation ledger balances."""
    c = report["conservation"]
    total = (c["delivered"] + c["corrupted"] + c["queued"] + c["dropped"]
             + c["lost_to_faults"])
    if c["holds"] and c["injected"] == total:
        return None
    return (f"injected {c['injected']} != delivered+corrupted+queued+"
            f"dropped+lost {total} (holds={c['holds']})")


# ---------------------------------------------------------------------------
# The paper workload
# ---------------------------------------------------------------------------

RTT_ROUNDS = 5
WARMUP = 2          # the harness's default warm-up messages
THROUGHPUT_KB = (1, 16, 64)


def transmit_count(size: int) -> int:
    """Messages per transmit point, as ``run_figure4`` sends them."""
    return max(8, min(200, (2 << 20) // size))


@dataclass(frozen=True)
class PaperPoint:
    kind: str                 # "rtt", "rx" or "tx"
    machine: object
    size: int                 # bytes
    protocol: str = ""        # rtt: "atm" | "udp"
    series: str = ""          # rx/tx: the figure's series name
    figure: str = ""          # "table1", "figure2", ...
    kwargs: tuple = ()

    @property
    def name(self) -> str:
        if self.kind == "rtt":
            return f"table1/{self.machine.name}/{self.protocol}/{self.size}"
        return f"{self.figure}/{self.series}/{self.size}"

    def run(self):
        kw = dict(self.kwargs)
        if self.kind == "rtt":
            return measure_round_trip(self.machine, self.size,
                                      protocol=self.protocol,
                                      rounds=RTT_ROUNDS)
        if self.kind == "rx":
            return measure_receive_throughput(self.machine, self.size, **kw)
        return measure_transmit_throughput(
            self.machine, self.size, messages=transmit_count(self.size), **kw)


def paper_points() -> list:
    """Table 1 (both machines, ATM and UDP, 1 B to 4 KB), then the
    receive and transmit throughput series at 1, 16 and 64 KB."""
    points = [PaperPoint("rtt", machine, size, protocol=protocol,
                         figure="table1")
              for machine in (DS5000_200, DEC3000_600)
              for protocol in ("atm", "udp") for size in MESSAGE_SIZES]
    series = (
        ("rx", DS5000_200, "figure2", "double cell DMA",
         (("dma_mode", DmaMode.DOUBLE_CELL),)),
        ("rx", DS5000_200, "figure2", "single cell DMA, cache invalidated",
         (("dma_mode", DmaMode.SINGLE_CELL),
          ("cache_policy", CachePolicyKind.EAGER))),
        ("rx", DEC3000_600, "figure3", "double cell DMA, UDP-CS",
         (("dma_mode", DmaMode.DOUBLE_CELL), ("udp_checksum", True))),
        ("tx", DEC3000_600, "figure4", "3000/600", ()),
        ("tx", DS5000_200, "figure4", "5000/200", ()),
    )
    for kind, machine, figure, name, kwargs in series:
        points += [PaperPoint(kind, machine, kb * 1024, series=name,
                              figure=figure, kwargs=kwargs)
                   for kb in THROUGHPUT_KB]
    return points


@contextlib.contextmanager
def capture_instances(*classes):
    """Collect every instance of ``classes`` built inside the block.

    Construction-only: one extra call per rig object, nothing per
    event.  The harness builds its rigs internally, and this is how
    the benchmark reads their counters afterwards.
    """
    found: dict = {cls: [] for cls in classes}
    originals = []

    def capturing(cls, init):
        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            found[cls].append(self)
        return __init__

    try:
        for cls in classes:
            init = cls.__dict__["__init__"]
            originals.append((cls, init))
            cls.__init__ = capturing(cls, init)
        yield found
    finally:
        for cls, init in originals:
            cls.__init__ = init


def point_attempts(point: PaperPoint) -> int:
    """Application messages a paper point sends, warm-up included."""
    if point.kind == "rtt":
        return 2 * RTT_ROUNDS
    if point.kind == "rx":
        return WARMUP + message_count_for(point.size)
    return WARMUP + transmit_count(point.size)


def run_paper_point(point: PaperPoint) -> Iteration:
    it = Iteration(point.name, attempted=point_attempts(point))
    gc.collect()
    try:
        clock = HostClock()
        with capture_instances(Simulator, Host) as found:
            result = clock.time(point.run)
        it.run_s, it.wall_s = clock.nominal_s, clock.raw_s
        hosts = [asdict(host.stats()) for host in found[Host]]
        sims = found[Simulator]
        it.cells = sum(h["cells_sent"] + h["cells_received"]
                       for h in hosts)
        it.absorbed = sum(s.events_absorbed for s in sims)
        it.events = sum(s.events_processed for s in sims) + it.absorbed
        it.sim_us = sum(s.now for s in sims)
        if point.kind == "rtt":
            value = result
            it.delivered = sum(min(h["pdus_received"], RTT_ROUNDS)
                               for h in hosts)
        else:
            value = result.mbps
            it.delivered = result.messages
        it.app_bytes = it.delivered * point.size
        it.detail = {"value": value, "hosts": hosts}
        it.report = canonical({"point": point.name, "value": value,
                               "events": it.events, "hosts": hosts})
    except Exception as exc:
        it.error = describe_error(exc)
    return it


def paper_rigs() -> None:
    """Build one rig of every kind the paper points use, the way the
    harness builds them, without running them."""
    for machine in (DS5000_200, DEC3000_600):
        BackToBack(machine).open_udp_pair(echo_b=True)
        BackToBack(machine).open_raw_pair(echo_b=True)
    for machine, dma_mode, policy, checksum in (
            (DS5000_200, DmaMode.DOUBLE_CELL, None, False),
            (DS5000_200, DmaMode.SINGLE_CELL, CachePolicyKind.EAGER, False),
            (DEC3000_600, DmaMode.DOUBLE_CELL, None, True)):
        if policy is None:
            policy = (CachePolicyKind.NONE
                      if machine.cache.coherent_with_dma
                      else CachePolicyKind.LAZY)
        host = Host(Simulator(), machine,
                    config=DriverConfig(rx_dma_mode=dma_mode,
                                        cache_policy=policy),
                    udp_checksum=checksum)
        host.connect_receive_only(flow_controlled=True)
        host.open_udp_path(local_port=7, remote_port=9)
    for machine in (DEC3000_600, DS5000_200):
        host = Host(Simulator(), machine,
                    config=DriverConfig(tx_dma_mode=DmaMode.SINGLE_CELL))
        host.connect(link=None, deliver=lambda cell: None)
        host.open_udp_path(local_port=7, remote_port=9)


def paper_setup() -> float:
    gc.collect()
    clock = HostClock()
    clock.time(paper_rigs)
    return clock.nominal_s


def load_reference(root: Path) -> dict:
    return json.loads((root / "experiments_data.json").read_text())


def reference_value(reference: dict, point: PaperPoint) -> float:
    """The recorded value for a point in ``experiments_data.json``."""
    if point.kind == "rtt":
        row = reference["table1"][f"{point.machine.name}|{point.protocol}"]
        return row[MESSAGE_SIZES.index(point.size)]
    figure = reference[point.figure]
    return figure["series"][point.series][
        figure["sizes"].index(point.size // 1024)]


def paper_error(points: list, values: dict) -> float:
    """Largest relative error, in percent, of the simulated Table 1
    points and figure peaks against the paper's own numbers."""
    errors = []
    for point in points:
        if point.kind == "rtt":
            paper = PAPER_TABLE_1[(point.machine.name, point.protocol)][
                MESSAGE_SIZES.index(point.size)]
            errors.append(abs(values[point.name] - paper) / paper)
    peaks: dict = {}
    for point in points:
        if point.kind != "rtt":
            key = (point.figure, point.series)
            peaks[key] = max(peaks.get(key, 0.0), values[point.name])
    papers = {"figure2": PAPER_FIGURE_2, "figure3": PAPER_FIGURE_3,
              "figure4": PAPER_FIGURE_4}
    for (figure, series), peak in peaks.items():
        paper = papers[figure][series]
        errors.append(abs(peak - paper) / paper)
    return 100.0 * max(errors)


def sentinel_points() -> list:
    """Table 1's 1-byte column: the paper accuracy check that runs
    beside the cluster workloads, which have no paper reference."""
    return [p for p in paper_points() if p.kind == "rtt" and p.size == 1]

"""Runs one benchmark workload, checks its outputs and prints the
result.  Entry point: ``perfbench/run.py``."""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
from pathlib import Path

from . import layers, selftest
from . import workloads as wl
from .hostclock import probe
from .tracing import Tracer, installed_wrappers, uninstall

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "clos-all2all")
END_TO_END_UNITS = {"cells_per_s": "cells/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "delivered_ratio": "ratio",
                    "sim_goodput_mbps": "Mbps", "paper_err_pct": "%"}
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload, check it, print metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least host time the timed phase measures; "
                             "whole rounds repeat until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate(repeats: int = 9) -> float:
    """Median time of the fixed pure-Python probe loop: runner speed,
    recorded beside the numbers so drift between runs is visible."""
    return statistics.median(probe() for _ in range(repeats))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (every workload, the
    sharded one included, runs in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Everything one invocation measured, checked and recorded."""

    def __init__(self, args):
        self.args = args
        self.iterations: list = []
        self.checks: list = []
        self.metrics: dict = {}
        self.fingerprint: dict = {}
        self.extra: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), "" if ok else detail))

    def check_iterations(self) -> None:
        failed = [it for it in self.iterations if it.error]
        self.check("no_run_raised", not failed,
                   "; ".join(f"{it.label} seed {it.seed}: {it.error}"
                             for it in failed))

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": value,
                              "unit": END_TO_END_UNITS.get(name)}

    @property
    def correct(self) -> bool:
        return all(ok for _n, ok, _d in self.checks)


def timed_rounds(run_round, seconds: float) -> list:
    """Repeat whole rounds until ``seconds`` of host time are measured."""
    iterations: list = []
    measured = 0.0
    while True:
        batch = run_round()
        iterations += batch
        measured += sum(it.wall_s for it in batch)
        if measured >= seconds or any(it.error for it in batch):
            return iterations


def delivery_metrics(run: Run, iterations: list) -> None:
    attempted = sum(it.attempted for it in iterations)
    delivered = sum(it.delivered for it in iterations)
    sim_us = sum(it.sim_us for it in iterations)
    run.metric("delivered_ratio", delivered / attempted if attempted else 0.0)
    run.metric("sim_goodput_mbps",
               sum(it.app_bytes for it in iterations) * 8.0 / sim_us
               if sim_us else 0.0)
    run.extra["messages"] = {"attempted": attempted, "delivered": delivered}


def fingerprint(iterations: list, latencies: dict) -> dict:
    return {"report_sha256": wl.digest("".join(it.report for it in iterations)),
            "latency_us": latencies,
            "model_events": sum(it.events for it in iterations)}


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

def check_paper_points(run: Run, iterations: list, points: list) -> dict:
    """Check each point against experiments_data.json at that file's
    precision (whole units); returns the simulated values by name."""
    reference = wl.load_reference(ROOT)
    values = {}
    wrong = []
    for point, it in zip(points, iterations, strict=True):
        if it.error:
            continue
        value = it.detail["value"]
        values[point.name] = value
        expect = wl.reference_value(reference, point)
        if round(value) != expect:
            wrong.append(f"{point.name}: {value:.2f} != {expect}")
    run.check("paper_points_match_experiments_data", not wrong,
              "; ".join(wrong))
    return values


def rtt_latency(iterations: list) -> dict:
    samples = sorted(it.detail["value"] for it in iterations
                     if it.label.startswith("table1/") and not it.error)
    if not samples:
        return {"p50": None, "p99": None, "samples": 0}
    return {"p50": samples[len(samples) // 2],
            "p99": samples[min(len(samples) - 1, int(len(samples) * 0.99))],
            "samples": len(samples)}


def paper_pass(points: list) -> list:
    return [wl.run_paper_point(point) for point in points]


def workload_paper(run: Run) -> None:
    points = wl.paper_points()
    setups = [wl.paper_setup() for _ in range(wl.SETUP_REPEATS)]
    iterations = timed_rounds(lambda: paper_pass(points), run.args.seconds)
    run.iterations = iterations
    first = iterations[:len(points)]
    values = check_paper_points(run, first, points)
    # Repeat check: Table 1 and the 1 KB throughput points, run again.
    again = [p for p in points if p.kind == "rtt" or p.size == 1024]
    repeats = paper_pass(again)
    by_name = {it.label: it for it in first}
    differ = [it.label for it in repeats
              if it.error or it.report != by_name[it.label].report]
    run.iterations += repeats
    run.check("paper_repeat_identical", not differ, ", ".join(differ))
    run.check_iterations()
    run.metric("cells_per_s", sum(it.cells for it in iterations)
               / sum(it.run_s for it in iterations))
    run.metric("setup_s", statistics.median(setups))
    run.metric("peak_rss_mb", peak_rss_mb())
    delivery_metrics(run, first)
    if len(values) == len(points):
        run.metric("paper_err_pct", wl.paper_error(points, values))
    run.fingerprint = fingerprint(first, rtt_latency(first))
    run.extra["setup_samples_s"] = setups


# ---------------------------------------------------------------------------
# clos-all2all
# ---------------------------------------------------------------------------

def check_cluster(run: Run, iterations: list) -> None:
    broken = []
    for it in iterations:
        if it.error:
            continue
        error = wl.conservation_error(json.loads(it.report))
        if error:
            broken.append(f"{it.label} seed {it.seed}: {error}")
    run.check("conservation_ledger_holds", not broken, "; ".join(broken))


def check_sharded(run: Run, plain, sharded) -> None:
    """The ``--shards 2`` run of a seed repeats its plain run through
    the window engine and the boundary codec: same report bytes."""
    run.check("shards2_report_equals_plain",
              not plain.error and not sharded.error
              and sharded.report == plain.report,
              f"seed {plain.seed}: the --shards {wl.SHARDS} report differs "
              "from the plain report")


def sentinel(run: Run) -> None:
    """paper_err_pct for a cluster workload: Table 1's 1-byte column,
    run after the cluster runs so it adds nothing to their memory."""
    points = wl.sentinel_points()
    iterations = paper_pass(points)
    values = check_paper_points(run, iterations, points)
    run.iterations += iterations
    if len(values) == len(points):
        run.metric("paper_err_pct", wl.paper_error(points, values))


def workload_clos(run: Run) -> None:
    seed = run.args.seed
    panel = wl.seed_panel(seed)
    iterations = timed_rounds(
        lambda: [wl.run_clos_plain(s) for s in panel], run.args.seconds)
    setups = [it.setup_s for it in iterations if not it.error]
    while len(setups) < wl.SETUP_REPEATS:
        gc.collect()
        setups.append(wl.clos_build(seed)[0].nominal_s)
    run.metric("peak_rss_mb", peak_rss_mb())
    sharded = wl.run_clos_sharded(seed)
    run.iterations = iterations + [sharded]
    check_sharded(run, iterations[0], sharded)
    check_cluster(run, run.iterations)
    sentinel(run)
    run.check_iterations()
    rates = [it.cells / it.run_s for it in iterations if not it.error]
    if rates:
        run.metric("cells_per_s", statistics.median(rates))
    run.metric("setup_s", statistics.median(setups))
    panel = iterations[:wl.PANEL_SIZE]
    delivery_metrics(run, panel)
    run.fingerprint = fingerprint(panel, dict(iterations[0].latency))
    run.fingerprint["seed_reports"] = {
        str(it.seed): wl.digest(it.report) for it in panel if it.report}
    run.extra["setup_samples_s"] = setups
    run.extra["parallel"] = sharded.detail.get("parallel")
    run.extra["wall_s"] = sum(it.wall_s for it in iterations)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def traced(once) -> tuple:
    """Run ``once`` with a fresh tracer's wrappers installed."""
    tracer = Tracer()
    originals = tracer.install()
    try:
        return once(), tracer
    finally:
        uninstall(originals)


def traced_run(run: Run) -> None:
    """Each pass untraced, then each pass traced with its own tracer.

    ``clos-all2all`` has two passes: the plain run, which gives every
    layer metric but the sharded ones, and its ``--shards 2`` repeat,
    which gives ``sim.parallel.*`` and ``cluster.boundary.*``."""
    for name, ok, detail in selftest.run_all():
        run.check(f"selftest.{name}", ok, detail)
    seed = run.args.seed
    workload = run.args.workload
    if workload == "paper":
        points = wl.paper_points()
        passes = [lambda: paper_pass(points)]
    else:
        passes = [lambda: [wl.run_clos_plain(seed)],
                  lambda: [wl.run_clos_sharded(seed)]]

    untraced = [once() for once in passes]
    traced_passes, tracers = zip(*(traced(once) for once in passes))
    left = installed_wrappers()
    run.check("wrappers_removed_after_trace", not left, ", ".join(left))
    flat_untraced = [it for its in untraced for it in its]
    flat_traced = [it for its in traced_passes for it in its]
    run.iterations = flat_untraced + flat_traced
    run.check_iterations()
    differ = [it.label for it, tr in zip(flat_untraced, flat_traced,
                                         strict=True)
              if it.report != tr.report]
    run.check("traced_report_equals_untraced", not differ,
              ", ".join(differ))
    if workload == "paper":
        check_paper_points(run, flat_untraced, points)
    else:
        check_cluster(run, run.iterations)
        check_sharded(run, *flat_untraced)
    if not run.correct:
        return

    main, tracer, parallel_tracer = traced_passes[0], tracers[0], tracers[-1]
    untraced_s = sum(it.wall_s for it in flat_untraced)
    traced_s = sum(it.wall_s for it in flat_traced)
    if workload == "paper":
        hosts = [h for it in main for h in it.detail["hosts"]]
        switches, drops, gates, parallel = [], 0, [], {}
    else:
        report = main[0].detail
        hosts, switches = report["hosts"], report["switches"]
        drops = report["drops"]["queue_full"]
        gates = (report["backpressure"] or {}).get("hosts", [])
        parallel = traced_passes[-1][0].detail["parallel"]
    run.metrics = layers.layer_metrics(
        tracer, parallel_tracer, hosts, switches, drops, gates,
        events=sum(it.events for it in main),
        absorbed=sum(it.absorbed for it in main),
        untraced_run_s=sum(it.run_s for it in untraced[0]),
        overhead_s=traced_s - untraced_s, parallel=parallel)
    run.extra.update({"untraced_s": untraced_s, "traced_s": traced_s})
    dump = tracer.to_dict()
    dump["workload"], dump["seed"] = workload, seed
    if parallel_tracer is not tracer:
        dump["sharded"] = parallel_tracer.to_dict()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(dump, indent=1, sort_keys=True))
    run.extra["layer_targets"] = {
        name: {"moves": list(moves), "on": list(on)}
        for name, _u, _b, moves, on in layers.PER_LAYER}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_run(run: Run, env: dict) -> None:
    args = run.args
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  env: cpu_count={env['cpu_count']} python={env['python']} "
          f"calibration_s={env['calibration_s']:.4f}")
    for it in run.iterations:
        flag = f"  ERROR {it.error}" if it.error else ""
        print(f"  run {it.label:<44} seed={it.seed!s:<5} "
              f"setup={it.setup_s:7.3f}s run={it.run_s:7.3f}s "
              f"wall={it.wall_s:7.3f}s "
              f"cells={it.cells:<7} events={it.events:<7} "
              f"delivered={it.delivered}/{it.attempted}{flag}")
    for name, ok, detail in run.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED ' + detail}")
    for name, metric in run.metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    if run.fingerprint:
        print(f"  fingerprint: {json.dumps(run.fingerprint, sort_keys=True)}")
    if args.trace:
        print(f"  tracing overhead: {run.extra.get('traced_s', 0):.3f}s "
              f"traced - {run.extra.get('untraced_s', 0):.3f}s untraced")
    row = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "env": env,
           "correct": run.correct, "checks": run.checks,
           "metrics": run.metrics, "fingerprint": run.fingerprint,
           "iterations": [it.row() for it in run.iterations],
           "extra": run.extra}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(row, indent=1, sort_keys=True))


def check_declared(run: Run) -> None:
    """The run printed exactly the metrics BENCHMARK.json declares for
    its mode, with the declared units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if run.args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in run.metrics.items()}
    run.check("metrics_match_benchmark_json", want == got,
              f"missing {sorted(set(want) - set(got))}, "
              f"undeclared {sorted(set(got) - set(want))}, units "
              f"{sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
           "calibration_s": calibrate()}
    run = Run(args)
    try:
        if args.trace:
            traced_run(run)
        else:
            {"paper": workload_paper,
             "clos-all2all": workload_clos}[args.workload](run)
        check_declared(run)
    except Exception as exc:    # the run must not vanish from the results
        run.check("workload_completed", False,
                  f"{type(exc).__name__}: {exc}")
    env["calibration_after_s"] = calibrate()
    print_run(run, env)
    failed = sum(1 for it in run.iterations if it.error)
    result = {"correct": run.correct,
              "attempted": max(len(run.iterations), 1),
              "failed": failed if run.iterations else 1,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in run.metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if run.correct else 1

"""Observation-only layer spans, installed from outside the program.

A :class:`Tracer` wraps public methods of the simulator's layers with
spans.  Each span records its host time and the time of the spans
nested inside it, so a layer's *self time* is its own time with the
children taken out.  Generator methods (the simulator's processes) are
timed per resume: creating the generator costs nothing, and every
``send``/``throw`` into it is one span.

Spans are aggregated in memory -- per span name: calls, total and self
seconds, exceptions by type, and per parent->child edge counts -- and
written out once, when the run ends.

``install`` returns the originals, ``uninstall`` puts them back; the
benchmark's self-tests check that no wrapper survives a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Optional

# (layer, module, class, method): the public boundaries each layer is
# timed at.  A span is named "<layer>:<Class>.<method>".
LAYER_SPANS = (
    ("sim", "repro.sim.core", "Simulator", "run"),
    ("sim", "repro.sim.core", "Simulator", "run_window"),
    ("sim.schedule", "repro.sim.core", "Simulator", "call_at"),
    ("sim.schedule", "repro.sim.core", "Simulator", "call_after"),
    ("sim.schedule", "repro.sim.core", "Simulator", "call_now"),
    ("atm.link", "repro.atm.link", "CellPipe", "submit"),
    ("atm.link", "repro.atm.link", "CellPipe", "submit_burst"),
    ("atm.switch", "repro.atm.switch", "CellSwitch", "input_cell"),
    ("atm.switch", "repro.atm.switch", "CellSwitch", "input_train"),
    ("topology.queues", "repro.topology.queues", "ActiveQueueIndex",
     "enqueue"),
    ("topology.queues", "repro.topology.queues", "ActiveQueueIndex",
     "pop_rr"),
    ("topology.queues", "repro.topology.queues", "ActiveQueueIndex",
     "pop_fifo"),
    ("cluster.backpressure", "repro.cluster.backpressure", "CreditGate",
     "acquire"),
    ("cluster.backpressure", "repro.cluster.backpressure", "CreditGate",
     "refill"),
    ("osiris.board", "repro.osiris.board", "OsirisBoard", "deliver_cell"),
    ("osiris.queues", "repro.osiris.queues", "DescriptorQueue", "push"),
    ("osiris.queues", "repro.osiris.queues", "DescriptorQueue", "pop"),
    ("atm.sar", "repro.atm.sar", "SequenceNumberReassembler", "push"),
    ("hw.dma", "repro.hw.dma", "DmaController", "read_host"),
    ("hw.dma", "repro.hw.dma", "DmaController", "write_host"),
    ("hw.bus", "repro.hw.bus", "TurboChannel", "dma_read"),
    ("hw.bus", "repro.hw.bus", "TurboChannel", "dma_write"),
    ("hw.bus", "repro.hw.bus", "TurboChannel", "pio_read_words"),
    ("hw.bus", "repro.hw.bus", "TurboChannel", "pio_write_words"),
    ("driver", "repro.driver.osiris_driver", "OsirisDriver", "send_pdu"),
    ("driver", "repro.driver.osiris_driver", "DriverSession", "deliver"),
    ("cluster.boundary", "repro.cluster.boundary", "BoundaryCodec",
     "encode_batch"),
    ("cluster.boundary", "repro.cluster.boundary", "BoundaryCodec",
     "encode_into"),
    ("cluster.boundary", "repro.cluster.boundary", "BoundaryCodec",
     "decode_batch"),
)

# Extra work units a call carries beyond one (a burst of cells).
SPAN_WEIGHTS = {
    "atm.link:CellPipe.submit_burst": lambda args: len(args[1]) - 1,
}

# The span whose consecutive entries bracket the window loop's work
# between shard windows (barrier bookkeeping, mailboxes, delivery).
WINDOW_SPAN = "sim:Simulator.run_window"


# Positions in a span's aggregate record.
FIELDS = {"calls": 0, "total": 1, "self": 2, "work": 3}


def span_name(layer: str, cls: str, method: str) -> str:
    return f"{layer}:{cls}.{method}"


class Tracer:
    """In-memory span aggregator with a strict enter/exit stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list = []          # [name, start, child seconds]
        self.stats: dict = {}           # name -> [calls, total, self, work]
        self.edges: dict = {}           # (parent, child) -> calls
        self.errors: dict = {}          # (name, exception type) -> count
        self._top_busy = 0.0            # seconds in top-level spans
        self._window_end: Optional[tuple] = None
        self.barrier_s = 0.0            # window-loop time between windows

    # -- the span protocol -------------------------------------------------

    def enter(self, name: str) -> None:
        now = self.clock()
        if name == WINDOW_SPAN and self._window_end is not None:
            ended, busy = self._window_end
            self.barrier_s += (now - ended) - (self._top_busy - busy)
        self._stack.append([name, now, 0.0])

    def exit(self, work: int = 1) -> None:
        name, start, child = self._stack.pop()
        now = self.clock()
        duration = now - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        entry[3] += work
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            edge = (parent[0], name)
        else:
            self._top_busy += duration
            edge = ("", name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if name == WINDOW_SPAN:
            self._window_end = (now, self._top_busy)

    def error(self, name: str, exc: BaseException) -> None:
        key = (name, type(exc).__name__)
        self.errors[key] = self.errors.get(key, 0) + 1

    def resumes(self, name: str, gen):
        """Drive ``gen``, timing every resume as one ``name`` span."""
        send_value = None
        thrown: Optional[BaseException] = None
        while True:
            self.enter(name)
            try:
                if thrown is None:
                    yielded = gen.send(send_value)
                else:
                    yielded = gen.throw(thrown)
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException as exc:
                self.error(name, exc)
                self.exit()
                raise
            self.exit()
            thrown = None
            send_value = None
            try:
                send_value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:   # forwarded into gen above
                thrown = exc

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return tracer.resumes(name, fn(*args, **kwargs))
            traced_generator.perfbench_span = name
            return traced_generator

        weight = SPAN_WEIGHTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            work = 1
            try:
                if weight is not None:
                    work += weight(args)
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error(name, exc)
                raise
            finally:
                tracer.exit(work)
        traced.perfbench_span = name
        return traced

    def install(self, spans=LAYER_SPANS) -> list:
        """Wrap every span target; returns what :func:`uninstall`
        needs to restore the originals exactly."""
        originals = []
        try:
            for layer, module, cls_name, method in spans:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
                originals.append((cls, method, original))
                setattr(cls, method, self.wrap(
                    span_name(layer, cls_name, method), original))
        except BaseException:
            uninstall(originals)
            raise
        return originals

    # -- output ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s,
                             "work": w}
                      for name, (c, t, s, w) in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "errors": [[s, e, n]
                       for (s, e), n in sorted(self.errors.items())],
            "barrier_s": self.barrier_s,
        }

    # -- queries ---------------------------------------------------------------

    def layer(self, prefix: str, field: str = "self") -> float:
        """Sum one field over every span of a layer (exact prefix)."""
        index = FIELDS[field]
        return sum(entry[index] for name, entry in self.stats.items()
                   if name.split(":", 1)[0] == prefix)

    def span(self, name: str, field: str = "self") -> float:
        index = FIELDS[field]
        entry = self.stats.get(name)
        return entry[index] if entry is not None else 0


def uninstall(originals: list) -> None:
    """Restore what :meth:`Tracer.install` replaced, newest first."""
    for cls, method, original in reversed(originals):
        setattr(cls, method, original)


def installed_wrappers(spans=LAYER_SPANS) -> list:
    """Span targets that are not their module's original function --
    empty once every traced run has uninstalled."""
    left = []
    for _layer, module, cls_name, method in spans:
        cls = getattr(importlib.import_module(module), cls_name)
        if hasattr(cls.__dict__[method], "perfbench_span"):
            left.append(f"{cls_name}.{method}")
    return left

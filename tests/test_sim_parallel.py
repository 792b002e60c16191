"""Unit tests for the conservative window engine, on toy programs.

The ring relay below is the smallest model with the fabric's shape:
every cross-shard message is stamped one lookahead after the emitting
event.  It runs identically under all three backends.
"""

import time

import pytest

from repro.cluster.boundary import BoundaryCodec
from repro.sim import SimulationError, Simulator
from repro.sim.parallel import BACKENDS, run_shards

W = 2.0


class RingRelay:
    """A token hops shard -> shard+1 every W; each hop is logged."""

    def __init__(self, index: int, n_shards: int, hops: int):
        self.sim = Simulator()
        self.index = index
        self.n_shards = n_shards
        self.hops = hops
        self.log = []
        self._outbox = []
        if index == 0:
            self.sim.call_at(1.0, lambda: self._hop(0))

    def _hop(self, k: int) -> None:
        self.log.append((self.sim.now, k))
        if k + 1 >= self.hops:
            return
        dest = (self.index + 1) % self.n_shards
        when = self.sim.now + W
        if dest == self.index:
            self.sim.call_at(when, lambda: self._hop(k + 1),
                             key=("hop", k + 1))
        else:
            self._outbox.append((dest, when, ("hop", k + 1),
                                 ("hop", k + 1)))

    def deliver(self, batch):
        for when, key, msg in batch:
            _tag, k = msg
            self.sim.call_at(when, lambda k=k: self._hop(k), key=key)

    def drain_outbox(self):
        out, self._outbox = self._outbox, []
        return out

    def collect(self, t_end):
        return {"index": self.index, "log": self.log,
                "now": self.sim.now}


def _ring(index, n_shards=3, hops=12):
    return RingRelay(index, n_shards, hops)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ring_relay_all_backends(backend):
    run = run_shards(lambda i: _ring(i), 3, W, backend=backend)
    merged = sorted((entry for p in run.partials for entry in p["log"]))
    assert merged == [(1.0 + W * k, k) for k in range(12)]
    assert run.t_end == 1.0 + W * 11
    assert run.events_processed == 12
    # advance_to(t_end) ran everywhere: idle shards read the global
    # end time, which is what makes merged snapshots consistent.
    assert all(p["now"] == run.t_end for p in run.partials)


def test_single_shard_runs_to_completion():
    run = run_shards(lambda i: RingRelay(i, 1, 8), 1, W,
                     backend="inline")
    assert run.partials[0]["log"] == [(1.0 + W * k, k)
                                      for k in range(8)]


def test_idle_peers_do_not_throttle_a_lone_busy_shard():
    # Shard 1 never has an event.  With per-shard horizons the busy
    # shard's bound is its own frontier plus TWO lookaheads (the
    # shortest possible echo path), so it needs about half as many
    # windows as events -- and far fewer than a global-window engine.
    hops = 40
    run = run_shards(lambda i: RingRelay(i, 1, hops) if i == 0
                     else RingRelay(1, 2, 0), 2, W, backend="inline")
    assert len(run.partials[0]["log"]) == hops
    assert run.windows <= hops // 2 + 2


class Boom(RingRelay):
    def _hop(self, k):
        raise RuntimeError("kaboom at hop")


def _assert_failure_surfaces_promptly(backend):
    # The surviving shard is told to stop, so teardown does not wait
    # out the channel's join timeout (10 s) before the error surfaces.
    start = time.monotonic()
    with pytest.raises(SimulationError, match=r"(?s)shard 0.*kaboom"):
        run_shards(lambda i: Boom(i, 2, 4), 2, W, backend=backend)
    assert time.monotonic() - start < 3.0


def test_worker_exception_surfaces_with_shard_index():
    _assert_failure_surfaces_promptly("thread")


def test_worker_exception_surfaces_with_shard_index_proc():
    _assert_failure_surfaces_promptly("proc")


def test_engine_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 2, 0.0)
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 0, W)
    with pytest.raises(SimulationError):
        run_shards(lambda i: _ring(i), 2, W, backend="nope")


# ----------------------------------------------------------- coalescing


class SelfLooper:
    """Dense local events, provably no cross-shard emission: the
    workload shape window coalescing exists for."""

    def __init__(self, index: int, events: int = 20):
        self.sim = Simulator()
        self.index = index
        self.log = []
        self._remaining = events
        self.sim.call_at(1.0, self._tick)

    def may_emit(self) -> bool:
        return False

    def _tick(self) -> None:
        self.log.append(self.sim.now)
        self._remaining -= 1
        if self._remaining:
            self.sim.call_after(0.5, self._tick)

    def deliver(self, batch):
        raise AssertionError("nothing should reach a SelfLooper")

    def drain_outbox(self):
        return []

    def probe(self):
        return {"index": self.index, "done": len(self.log)}

    def collect(self, t_end):
        return {"index": self.index, "log": self.log}


def test_non_capable_shards_coalesce_to_one_window():
    runs = {}
    for coalesce in (True, False):
        runs[coalesce] = run_shards(lambda i: SelfLooper(i), 2, W,
                                    backend="inline", coalesce=coalesce)
    # Ten lookaheads of local work: the fixed schedule pays a barrier
    # per W, the coalesced one drains everything in a single window.
    assert runs[True].windows == 1
    assert runs[False].windows > 3
    assert runs[True].boundary_msgs == 0
    assert [p["log"] for p in runs[True].partials] \
        == [p["log"] for p in runs[False].partials]


def test_window_probe_fires_per_coalesced_window():
    for coalesce, expected in ((True, 1), (False, None)):
        probes = []
        run = run_shards(lambda i: SelfLooper(i), 2, W,
                         backend="inline", coalesce=coalesce,
                         window_probe=lambda w, counters:
                         probes.append((w, counters)))
        assert len(probes) == run.windows
        if expected is not None:
            assert len(probes) == expected
        # The final probe is a true quiescence snapshot either way.
        assert all(c["done"] == 20 for c in probes[-1][1])


class Sender:
    """Emits ``n_msgs`` messages to shard 1, one per lookahead."""

    def __init__(self, n_msgs: int):
        self.sim = Simulator()
        self._outbox = []
        for k in range(n_msgs):
            self.sim.call_at(1.0 + W * k, lambda k=k: self._emit(k))

    def _emit(self, k: int) -> None:
        self._outbox.append((1, self.sim.now + W, ("m", k), ("m", k)))

    def deliver(self, batch):
        raise AssertionError("nothing sends to the Sender")

    def drain_outbox(self):
        out, self._outbox = self._outbox, []
        return out

    def collect(self, t_end):
        return {"sent": True}


class Sink:
    """Deliver-only and provably non-emitting: with coalescing its
    deliveries must be deferred and batched, not trickled."""

    def __init__(self):
        self.sim = Simulator()
        self.received = []
        self.deliver_calls = 0

    def may_emit(self) -> bool:
        return False

    def deliver(self, batch):
        self.deliver_calls += 1
        for when, key, msg in batch:
            self.sim.call_at(
                when,
                lambda m=msg: self.received.append((self.sim.now, m)),
                key=key)

    def drain_outbox(self):
        return []

    def collect(self, t_end):
        return {"received": self.received,
                "deliver_calls": self.deliver_calls}


def test_deliver_only_sink_batches_into_one_window():
    n_msgs = 6
    runs = {}
    for coalesce in (True, False):
        runs[coalesce] = run_shards(
            lambda i: Sender(n_msgs) if i == 0 else Sink(), 2, W,
            backend="inline", coalesce=coalesce)
    want = [(1.0 + W * (k + 1), ("m", k)) for k in range(n_msgs)]
    for run in runs.values():
        assert run.partials[1]["received"] == want
        assert run.boundary_msgs == n_msgs
    # Deferred deliver-only commands coalesce into a single flush;
    # the fixed schedule wakes the sink repeatedly.
    assert runs[True].partials[1]["deliver_calls"] == 1
    assert runs[False].partials[1]["deliver_calls"] > 1


# ---------------------------------------------------------------- codec


class CodecRing(RingRelay):
    """RingRelay over the struct transport.  ``("hop", k)`` keys and
    messages have no fixed record, so every boundary message rides an
    escape record -- the transport must be transparent even then."""

    def __init__(self, *args):
        super().__init__(*args)
        self.codec = BoundaryCodec()


@pytest.mark.parametrize("backend", BACKENDS)
def test_codec_transport_is_transparent(backend):
    plain = run_shards(lambda i: _ring(i), 3, W, backend="inline")
    coded = run_shards(lambda i: CodecRing(i, 3, 12), 3, W,
                       backend=backend)
    assert [p["log"] for p in coded.partials] \
        == [p["log"] for p in plain.partials]
    assert coded.t_end == plain.t_end
    # 11 of the 12 hops cross a shard boundary; both transports must
    # agree on the message count, and the codec must report the bytes
    # it actually shipped.
    assert coded.boundary_msgs == plain.boundary_msgs == 11
    assert coded.boundary_bytes > 0
    assert plain.boundary_bytes > 0

"""Unit tests for resources and stores."""

import pytest

from repro.sim import (
    Delay, Interrupted, Resource, SimulationError, Simulator, Store, spawn,
)


def test_resource_serializes_capacity_one():
    sim = Simulator()
    bus = Resource(sim, "bus", capacity=1)
    log = []

    def user(tag, hold):
        yield from bus.use(hold)
        log.append((tag, sim.now))

    spawn(sim, user("a", 5.0))
    spawn(sim, user("b", 3.0))
    sim.run()
    assert log == [("a", 5.0), ("b", 8.0)]


def test_resource_capacity_two_runs_concurrently():
    sim = Simulator()
    pool = Resource(sim, "pool", capacity=2)
    log = []

    def user(tag):
        yield from pool.use(4.0)
        log.append((tag, sim.now))

    for tag in "abc":
        spawn(sim, user(tag))
    sim.run()
    assert log == [("a", 4.0), ("b", 4.0), ("c", 8.0)]


def test_priority_request_served_first():
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def holder():
        yield from bus.use(10.0)

    def user(tag, priority):
        yield Delay(1.0)
        grant = yield bus.request(priority)
        log.append((tag, sim.now))
        grant.release()

    spawn(sim, holder())
    spawn(sim, user("low", priority=5.0))
    spawn(sim, user("high", priority=0.0))
    sim.run()
    assert [tag for tag, _ in log] == ["high", "low"]


def test_double_release_raises():
    sim = Simulator()
    bus = Resource(sim, "bus")
    errors = []

    def user():
        grant = yield bus.request()
        grant.release()
        try:
            grant.release()
        except SimulationError as exc:
            errors.append(exc)

    spawn(sim, user())
    sim.run()
    assert len(errors) == 1


def test_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, "bad", capacity=0)


def test_busy_time_accounting():
    sim = Simulator()
    bus = Resource(sim, "bus")

    def user():
        yield from bus.use(4.0)
        yield Delay(6.0)
        yield from bus.use(2.0)

    spawn(sim, user())
    sim.run()
    assert bus.busy_time == pytest.approx(6.0)
    assert bus.utilization() == pytest.approx(0.5)
    assert bus.grants == 2


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim, "pipe")
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield Delay(7.0)
        yield store.put("cell")

    spawn(sim, consumer())
    spawn(sim, producer())
    sim.run()
    assert got == [(7.0, "cell")]


def test_store_preserves_fifo_order():
    sim = Simulator()
    store = Store(sim, "pipe")
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)
            yield Delay(1.0)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_bounded_store_blocks_producer():
    sim = Simulator()
    store = Store(sim, "pipe", capacity=1)
    times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            times.append(sim.now)

    def consumer():
        for _ in range(3):
            yield Delay(10.0)
            yield store.get()

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    # First put immediate; second put waits for first get at t=10; third at 20.
    assert times == [0.0, 10.0, 20.0]


def test_try_put_and_try_get():
    sim = Simulator()
    store = Store(sim, "pipe", capacity=2)
    assert store.try_put("a")
    assert store.try_put("b")
    assert not store.try_put("c")
    ok, item = store.try_get()
    assert ok and item == "a"
    assert store.try_put("c")
    assert [store.try_get()[1] for _ in range(2)] == ["b", "c"]
    ok, item = store.try_get()
    assert not ok


def test_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim, "pipe")
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    spawn(sim, consumer("first"))
    spawn(sim, consumer("second"))

    def producer():
        yield Delay(1.0)
        yield store.put("x")
        yield store.put("y")

    spawn(sim, producer())
    sim.run()
    assert got == [("first", "x"), ("second", "y")]


def test_bounded_store_interleaves_puts_gets_and_blocked_putters():
    sim = Simulator()
    store = Store(sim, "fifo", capacity=2)
    got = []

    def early_getter():
        item = yield store.get()
        got.append(("g", item, sim.now))

    def producer(items):
        for item in items:
            yield store.put(item)

    def consumer():
        yield Delay(5.0)
        for _ in range(5):
            item = yield store.get()
            got.append(("c", item, sim.now))
            yield Delay(1.0)

    spawn(sim, early_getter())
    spawn(sim, producer(["a1", "a2", "a3", "a4"]))
    spawn(sim, producer(["b1", "b2"]))
    spawn(sim, consumer())
    sim.run()
    # a1 goes straight to the waiting getter; a4 and then b1 block on
    # the full store and are admitted in the order they blocked.
    assert got == [("g", "a1", 0.0), ("c", "a2", 5.0), ("c", "a3", 6.0),
                   ("c", "a4", 7.0), ("c", "b1", 8.0), ("c", "b2", 9.0)]
    assert store.total_put == 6 and len(store) == 0


def _mixed_contention(acquire):
    """An uncontended grant, a contended burst, then another lone one."""
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def user(tag, start, hold):
        yield Delay(start)
        yield from acquire(bus, hold)
        log.append((tag, sim.now))

    for tag, start, hold in (("a", 0.0, 4.0), ("b", 10.0, 3.0),
                             ("c", 10.0, 2.0), ("d", 11.0, 1.0),
                             ("e", 30.0, 5.0)):
        spawn(sim, user(tag, start, hold))
    sim.run()
    return (log, bus.grants, bus.busy_time, bus.utilization(),
            sim.events_processed)


def test_fast_and_queued_grants_keep_the_same_books():
    def via_use(bus, hold):                 # inline grant when free
        yield from bus.use(hold)

    def via_request(bus, hold):             # request + Grant objects
        grant = yield bus.request()
        try:
            yield Delay(hold)
        finally:
            grant.release()

    fast = _mixed_contention(via_use)
    assert fast == _mixed_contention(via_request)
    log, grants, busy, utilization, _events = fast
    assert log == [("a", 4.0), ("b", 13.0), ("c", 15.0), ("d", 16.0),
                   ("e", 35.0)]
    assert grants == 5
    assert busy == pytest.approx(15.0)
    assert utilization == pytest.approx(15.0 / 35.0)


def test_interrupted_holder_releases_to_next_waiter_at_once():
    sim = Simulator()
    bus = Resource(sim, "bus")
    log = []

    def holder():
        try:
            yield from bus.use(10.0)
        except Interrupted:
            log.append(("holder interrupted", sim.now))

    def waiter():
        yield Delay(1.0)
        grant = yield bus.request()
        log.append(("waiter granted", sim.now))
        yield Delay(3.0)
        grant.release()

    h = spawn(sim, holder())
    spawn(sim, waiter())

    def preempt():
        yield Delay(4.0)
        h.interrupt("preempt")

    spawn(sim, preempt())
    sim.run()
    assert log == [("waiter granted", 4.0), ("holder interrupted", 4.0)]
    assert bus.in_use == 0 and bus.grants == 2
    assert bus.busy_time == pytest.approx(7.0)
    assert sim.now == 7.0

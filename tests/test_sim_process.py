"""Unit tests for generator-based processes."""

import pytest

from repro.sim import (
    Delay, Interrupted, Latch, SimulationError, Signal, Simulator, all_of,
    spawn,
)


def test_delay_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield Delay(3.0)
        seen.append(sim.now)
        yield Delay(4.0)
        seen.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert seen == [3.0, 7.0]


def test_process_result():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 42

    p = spawn(sim, proc())
    sim.run()
    assert p.done
    assert p.result == 42


def test_join_another_process():
    sim = Simulator()

    def worker():
        yield Delay(5.0)
        return "payload"

    def waiter(target):
        value = yield target
        return (sim.now, value)

    w = spawn(sim, worker())
    j = spawn(sim, waiter(w))
    sim.run()
    assert j.result == (5.0, "payload")


def test_join_already_finished_process():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return "done"

    def late_joiner(target):
        yield Delay(10.0)
        value = yield target
        return value

    w = spawn(sim, worker())
    j = spawn(sim, late_joiner(w))
    sim.run()
    assert j.result == "done"


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = Signal("s")
    results = []

    def waiter():
        value = yield sig
        results.append((sim.now, value))

    for _ in range(3):
        spawn(sim, waiter())
    spawn(sim, _fire_later(sim, sig, 2.0, "hello"))
    sim.run()
    assert results == [(2.0, "hello")] * 3


def _fire_later(sim, sig, delay, value):
    yield Delay(delay)
    sig.fire(value)


def test_signal_has_no_memory():
    sim = Simulator()
    sig = Signal("s")
    sig.fire("lost")
    results = []

    def waiter():
        value = yield sig
        results.append(value)

    spawn(sim, waiter())
    spawn(sim, _fire_later(sim, sig, 1.0, "kept"))
    sim.run()
    assert results == ["kept"]


def test_latch_remembers_fire():
    sim = Simulator()
    latch = Latch("l")
    latch.fire("sticky")
    results = []

    def waiter():
        value = yield latch
        results.append(value)

    spawn(sim, waiter())
    sim.run()
    assert results == ["sticky"]


def test_yield_none_is_cooperative_yield():
    sim = Simulator()
    order = []

    def proc(tag):
        for _ in range(2):
            order.append(tag)
            yield None

    spawn(sim, proc("a"))
    spawn(sim, proc("b"))
    sim.run()
    assert order == ["a", "b", "a", "b"]


def test_interrupt_during_delay():
    sim = Simulator()
    outcome = []

    def sleeper():
        try:
            yield Delay(100.0)
            outcome.append("slept")
        except Interrupted as exc:
            outcome.append(("interrupted", sim.now, exc.cause))

    p = spawn(sim, sleeper())

    def interrupter():
        yield Delay(3.0)
        p.interrupt("wake up")

    spawn(sim, interrupter())
    sim.run()
    assert outcome == [("interrupted", 3.0, "wake up")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield Delay(1.0)

    p = spawn(sim, quick())
    sim.run()
    p.interrupt()  # no exception
    assert p.done


def test_uncaught_interrupt_terminates_process():
    sim = Simulator()

    def sleeper():
        yield Delay(100.0)

    p = spawn(sim, sleeper())

    def interrupter():
        yield Delay(1.0)
        p.interrupt()

    spawn(sim, interrupter())
    sim.run()
    assert p.done


def test_yield_bad_command_raises():
    sim = Simulator()

    def proc():
        yield 123

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_exception_propagates_and_marks_failed():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        raise ValueError("model bug")

    p = spawn(sim, proc())
    with pytest.raises(ValueError):
        sim.run()
    assert p.failed
    assert isinstance(p.error, ValueError)


def test_all_of_collects_results():
    sim = Simulator()

    def worker(delay, value):
        yield Delay(delay)
        return value

    procs = [spawn(sim, worker(d, d * 10)) for d in (3.0, 1.0, 2.0)]
    combined = all_of(sim, procs)
    sim.run()
    assert combined.result == [30.0, 10.0, 20.0]
    assert sim.now == 3.0


def test_subgenerator_delegation_with_yield_from():
    sim = Simulator()
    seen = []

    def inner():
        yield Delay(2.0)
        return "inner-value"

    def outer():
        value = yield from inner()
        seen.append((sim.now, value))

    spawn(sim, outer())
    sim.run()
    assert seen == [(2.0, "inner-value")]


# ------------------------------------------------ kernel command contract


def _timeline(pause):
    """Two interleaved sleepers; ``pause(d)`` builds each yield."""
    sim = Simulator()
    seen = []

    def sleeper(tag, steps):
        for step in steps:
            yield pause(step)
            seen.append((tag, sim.now))

    spawn(sim, sleeper("a", (1.5, 0.0, 2.0)))
    spawn(sim, sleeper("b", (1.5, 1.0, 0.5)))
    sim.run()
    return seen, sim.events_processed


def test_bare_float_delay_matches_delay_schedule():
    by_object = _timeline(Delay)
    assert by_object == _timeline(float)
    seen, events = by_object
    assert seen == [("a", 1.5), ("b", 1.5), ("a", 1.5), ("b", 2.5),
                    ("b", 3.0), ("a", 3.5)]
    assert events == 8          # two starts, six timed resumes


def test_bare_negative_float_raises_at_the_yield():
    sim = Simulator()
    caught = []

    def recovering():
        try:
            yield -1.0
        except SimulationError as exc:
            caught.append((sim.now, str(exc)))
        yield 2.0
        return "recovered"

    def failing():
        yield -0.5

    ok = spawn(sim, recovering())
    bad = spawn(sim, failing())
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()
    assert caught == [(0.0, "negative delay -1.0")]
    assert bad.failed and isinstance(bad.error, SimulationError)
    sim.run()
    assert ok.result == "recovered" and sim.now == 2.0


def test_negative_delay_object_still_raises():
    with pytest.raises(SimulationError):
        Delay(-1.0)


def test_join_before_and_after_finish_both_get_result():
    sim = Simulator()
    joins = []

    def worker():
        yield 1.0
        return "payload"

    def joiner(tag, wait):
        yield wait
        value = yield target
        joins.append((tag, sim.now, value))

    target = spawn(sim, worker())
    spawn(sim, joiner("early", 0.5))
    spawn(sim, joiner("late", 10.0))
    sim.run()
    # The late joiner resumes at once, without waiting for an event.
    assert joins == [("early", 1.0, "payload"), ("late", 10.0, "payload")]


def test_join_failed_process_returns_none():
    sim = Simulator()

    def broken():
        yield 1.0
        raise ValueError("model bug")

    p = spawn(sim, broken())
    with pytest.raises(ValueError):
        sim.run()
    joined = []

    def joiner():
        joined.append((yield p))

    spawn(sim, joiner())
    sim.run()
    assert joined == [None]

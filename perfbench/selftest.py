"""Self-tests of the benchmark's own tracing.

Run standalone (``python3 perfbench/selftest.py``); every traced run
also runs them first and fails if one does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    __package__ = "perfbench"

from .tracing import Tracer, installed_wrappers, uninstall  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def check_wrappers_removed() -> None:
    tracer = Tracer()
    originals = tracer.install()
    try:
        if not installed_wrappers():
            raise AssertionError("install() wrapped nothing")
    finally:
        uninstall(originals)
    left = installed_wrappers()
    if left:
        raise AssertionError(f"wrappers left installed: {left}")
    for cls, method, original in originals:
        if cls.__dict__[method] is not original:
            raise AssertionError(f"{cls.__name__}.{method} not restored")


def check_self_time_subtracts_children() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")           # outer: 0 .. 10
    clock.now = 1.0
    tracer.enter("child")           # child: 1 .. 4
    clock.now = 2.0
    tracer.enter("grandchild")      # grandchild: 2 .. 3
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 6.0
    tracer.enter("child")           # child again: 6 .. 8
    clock.now = 8.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    expect = {"outer": (1, 10.0, 5.0), "child": (2, 5.0, 4.0),
              "grandchild": (1, 1.0, 1.0)}
    for name, (calls, total, self_s) in expect.items():
        got = tuple(tracer.stats[name][:3])
        if got != (calls, total, self_s):
            raise AssertionError(
                f"{name}: (calls, total, self) {got} != "
                f"{(calls, total, self_s)}")
    if tracer.edges != {("", "outer"): 1, ("outer", "child"): 2,
                        ("child", "grandchild"): 1}:
        raise AssertionError(f"parent edges wrong: {tracer.edges}")


def check_generators_timed_per_resume() -> None:
    clock = FakeClock()
    tracer = Tracer(clock)

    def process():
        clock.now += 1.0            # first resume: 1 s
        got = yield "first"
        clock.now += 2.0            # second resume: 2 s
        yield got
        clock.now += 4.0            # final resume: 4 s
        return "done"

    traced = tracer.wrap("gen", process)
    gen = traced()
    clock.now += 100.0              # idle between creation and first send
    if "gen" in tracer.stats:
        raise AssertionError("creating the generator recorded a span")
    if next(gen) != "first":
        raise AssertionError("first yield not passed through")
    clock.now += 50.0               # suspended time is not the span's
    if gen.send("echo") != "echo":
        raise AssertionError("sent value not passed through")
    try:
        next(gen)
    except StopIteration as stop:
        if stop.value != "done":
            raise AssertionError("return value lost") from None
    else:
        raise AssertionError("generator did not finish")
    calls, total, self_s, _ = tracer.stats["gen"]
    if (calls, total, self_s) != (3, 7.0, 7.0):
        raise AssertionError(
            f"per-resume timing wrong: calls={calls} total={total}")

    def failing():
        yield
        raise KeyError("boom")

    gen = tracer.wrap("bad", failing)()
    next(gen)
    try:
        next(gen)
    except KeyError:
        pass
    if tracer.errors.get(("bad", "KeyError")) != 1:
        raise AssertionError("exception from a resume not recorded")


CHECKS = (check_wrappers_removed, check_self_time_subtracts_children,
          check_generators_timed_per_resume)


def run_all() -> list:
    """(name, ok, detail) for every self-test."""
    results = []
    for check in CHECKS:
        try:
            check()
            results.append((check.__name__, True, ""))
        except Exception as exc:    # reported, never swallowed
            results.append((check.__name__, False,
                            f"{type(exc).__name__}: {exc}"))
    return results


def main() -> int:
    results = run_all()
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    return 0 if all(ok for _n, ok, _d in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

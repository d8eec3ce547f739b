"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_run_in_timestamp_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_ties_broken_by_scheduling_order():
    sim = Simulator()
    order = []
    sim.schedule(0.5, order.append, "first")
    sim.schedule(0.5, order.append, "second")
    sim.schedule(0.5, order.append, "third")
    sim.run_until_idle()
    assert order == ["first", "second", "third"]


def test_cancelled_event_does_not_run():
    sim = Simulator()
    hits = []
    event = sim.schedule(0.1, hits.append, "cancelled")
    sim.schedule(0.2, hits.append, "kept")
    event.cancel()
    sim.run_until_idle()
    assert hits == ["kept"]


def test_run_until_stops_at_deadline():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, "early")
    sim.schedule(5.0, hits.append, "late")
    sim.run(until=2.0)
    assert hits == ["early"]
    assert sim.now == pytest.approx(2.0)
    assert sim.pending_events == 1


def test_run_advances_clock_to_until_when_queue_drains():
    sim = Simulator()
    sim.schedule(0.5, lambda: None)
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    seen = []

    def chain(step):
        seen.append(step)
        if step < 3:
            sim.schedule(0.1, chain, step + 1)

    sim.schedule(0.0, chain, 0)
    sim.run_until_idle()
    assert seen == [0, 1, 2, 3]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_max_events_limit():
    sim = Simulator()
    hits = []
    for index in range(10):
        sim.schedule(0.1 * (index + 1), hits.append, index)
    sim.run(max_events=4)
    assert hits == [0, 1, 2, 3]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(0.1, lambda: None)
    assert sim.step() is True
    assert sim.events_processed == 1


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.1, nested)
    sim.run_until_idle()
    assert len(errors) == 1

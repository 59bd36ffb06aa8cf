"""Unit tests for periodic timers and restartable timeouts."""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timeout


def test_periodic_timer_fires_every_period():
    sim = Simulator()
    times = []
    PeriodicTimer(sim, 10, lambda: times.append(sim.now))
    sim.run(until=35)
    assert times == [10, 20, 30]


def test_periodic_timer_stop():
    sim = Simulator()
    times = []
    timer = PeriodicTimer(sim, 10, lambda: times.append(sim.now))
    sim.schedule(25, timer.stop)
    sim.run(until=100)
    assert times == [10, 20]
    assert not timer.running


def test_periodic_timer_stop_from_callback():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] == 3:
            timer.stop()

    timer = PeriodicTimer(sim, 5, tick)
    sim.run(until=1000)
    assert count[0] == 3


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0, lambda: None)


def test_timeout_fires_after_duration():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 50, lambda: fired.append(sim.now))
    timeout.start()
    sim.run()
    assert fired == [50]
    assert timeout.expired_count == 1


def test_timeout_reset_pushes_deadline():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 50, lambda: fired.append(sim.now))
    timeout.start()
    sim.schedule(30, timeout.reset)
    sim.run()
    assert fired == [80]


def test_timeout_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timeout = Timeout(sim, 50, lambda: fired.append(sim.now))
    timeout.start()
    sim.schedule(10, timeout.cancel)
    sim.run()
    assert fired == []
    assert not timeout.armed


def test_timeout_armed_property():
    sim = Simulator()
    timeout = Timeout(sim, 50, lambda: None)
    assert not timeout.armed
    timeout.start()
    assert timeout.armed
    sim.run()
    assert not timeout.armed


def test_timeout_rejects_nonpositive_duration():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timeout(sim, 0, lambda: None)

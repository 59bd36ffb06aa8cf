"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.sim import ScheduledEvent, Simulator
from repro.sim.simulator import SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(5.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_priority_breaks_time_ties():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "low", priority=10)
    sim.schedule(5.0, fired.append, "high", priority=-10)
    sim.run()
    assert fired == ["high", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    stopped_at = sim.run(until=50)
    assert stopped_at == 50
    assert sim.pending_count() == 1


def test_event_at_exact_horizon_fires():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, 1)
    sim.run(until=50)
    assert fired == [1]


def test_run_advances_clock_to_horizon_when_queue_drains():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run(until=1000)
    assert sim.now == 1000


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    assert event.cancel()
    sim.run()
    assert fired == []
    assert event.cancelled and not event.fired


def test_cancel_after_fire_returns_false():
    sim = Simulator()
    event = sim.schedule(1, lambda: None)
    sim.run()
    assert event.fired
    assert not event.cancel()


def test_stop_halts_event_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, lambda: sim.stop())
    sim.schedule(3, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending_count() == 1


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, 1)
    sim.schedule(2, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_call_soon_executes_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(10, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [10]


def test_max_events_bounds_execution():
    sim = Simulator()
    counter = [0]

    def loop():
        counter[0] += 1
        sim.schedule(1, loop)

    sim.schedule(0, loop)
    sim.run(max_events=10)
    assert counter[0] == 10


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, inner)
    sim.run()


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    first.cancel()
    assert sim.peek_next_time() == 9


def test_trace_hook_sees_every_fired_event():
    sim = Simulator()
    seen = []
    sim.add_trace_hook(lambda e: seen.append(e.time))
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert seen == [1, 2]


def test_events_fired_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_fired == 7


# ----------------------------------------------------------------------
# peek_next_time edge cases
# ----------------------------------------------------------------------
def test_peek_next_time_empty_queue_returns_none():
    sim = Simulator()
    assert sim.peek_next_time() is None
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.peek_next_time() is None  # drained queue, not just fresh


def test_peek_next_time_all_cancelled_heap_returns_none():
    sim = Simulator()
    events = [sim.schedule(t, lambda: None) for t in (1.0, 2.0, 3.0)]
    assert [entry[:3] for entry in sim._heap] == [(e.time, 0, e.seq) for e in events]
    for event in events:
        event.cancel()
    assert sim.peek_next_time() is None
    # The lazy sweep really discarded the corpses.
    assert sim.pending_count() == 0
    assert not sim._heap


# ----------------------------------------------------------------------
# Windowed runs
# ----------------------------------------------------------------------
def test_windowed_run_to_matches_single_run():
    def workload(sim, log):
        def ping(i):
            log.append((sim.now, i))
            if i < 20:
                sim.schedule(7.0, ping, i + 1)

        sim.schedule(1.0, ping, 0)

    windowed_sim, windowed_log = Simulator(seed=3), []
    workload(windowed_sim, windowed_log)
    horizon = 0.0
    while horizon < 200.0:
        horizon += 13.0
        windowed_sim.run(until=horizon)
    straight_sim, straight_log = Simulator(seed=3), []
    workload(straight_sim, straight_log)
    straight_sim.run()
    assert windowed_log == straight_log
    assert windowed_sim.events_fired == straight_sim.events_fired
    # A horizon already behind the clock fires nothing and moves nothing.
    assert windowed_sim.run(until=horizon - 50.0) == horizon
    assert windowed_sim.now == horizon


# ----------------------------------------------------------------------
# Firing order against a reference model
# ----------------------------------------------------------------------
def _run_random_program(seed, drive):
    """A random schedule/cancel program, checked online against a model.

    ``model`` maps seq -> (time, priority, seq) for every pending event;
    each firing must be the model's minimum.  Times come from a coarse
    grid so ties on time (and on time+priority) are the common case, and
    handlers schedule and cancel from inside the loop.  Returns what the
    callbacks and the trace hook saw.
    """
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    model, handles, fired, hooked = {}, {}, [], []

    def hook(event):
        assert isinstance(event, ScheduledEvent) and event.fired and not event.pending
        hooked.append((event.time, event.priority, event.seq))

    sim.add_trace_hook(hook)

    def check_accounting():
        assert sim.pending_count() == len(model)
        expected = min(model.values())[0] if model else None
        assert sim.peek_next_time() == expected
        assert all(
            entry[:3] == (entry[3].time, entry[3].priority, entry[3].seq)
            for entry in sim._heap
        )

    def add(budget):
        kind = rng.randrange(3)
        priority = rng.choice((0, 0, 0, -1, 1, 5))
        if kind == 0:
            event = sim.schedule(float(rng.randrange(4)), fire, budget, priority=priority)
        elif kind == 1:
            event = sim.schedule_at(sim.now + rng.randrange(6), fire, budget, priority=priority)
        else:
            event = sim.call_soon(fire, budget)
        assert event.pending and event.time >= sim.now
        model[event.seq] = (event.time, event.priority, event.seq)
        handles[event.seq] = event

    def cancel(seq):
        assert handles.pop(seq).cancel()
        del model[seq]

    def fire(budget):
        key = min(model.values())
        assert key[0] == sim.now
        fired.append(key)
        handle = handles.pop(key[2])
        del model[key[2]]
        assert not handle.cancel()  # already firing: not cancellable
        if budget:
            for _ in range(rng.randrange(4)):
                add(budget - 1)
        if model and rng.random() < 0.3:
            cancel(rng.choice(sorted(model)))
        if len(fired) == 40:
            # Enough corpses at once to cross the compaction threshold.
            doomed = [seq for seq, key in model.items() if key[0] >= 1000.0]
            for seq in doomed:
                cancel(seq)
            assert len(sim._heap) < len(model) + 2 * Simulator.COMPACTION_MIN
        check_accounting()

    for _ in range(30):
        add(6)
    for i in range(3 * Simulator.COMPACTION_MIN):
        event = sim.schedule_at(1000.0 + i % 7, fire, 0)
        model[event.seq] = (event.time, 0, event.seq)
        handles[event.seq] = event
    check_accounting()
    drive(sim)
    assert not model and sim.pending_count() == 0 and sim.peek_next_time() is None
    assert len(fired) > 40  # the compaction branch ran
    return fired, hooked, sim.events_fired, sim.now


def _drive_by_steps(sim):
    while sim.step():
        pass


@pytest.mark.parametrize("seed", range(8))
def test_firing_order_matches_reference_model(seed):
    fired, hooked, count, end = _run_random_program(seed, lambda sim: sim.run())
    assert fired == hooked and count == len(fired)
    # step() is a one-event run(): same program, same stream.
    assert _run_random_program(seed, _drive_by_steps) == (fired, hooked, count, end)
    # Windowed runs too (run() resumes mid-queue with cancelled entries inside).
    def windows(sim):
        while sim.pending_count():
            sim.run(until=sim.now + 1.5)
    assert _run_random_program(seed, windows)[:3] == (fired, hooked, count)

"""Tests for the mesoscale workload engine: aggregated client populations."""

import json

import pytest

from repro.core import ThreatLevel
from repro.mesoscale import (
    AdmissionController,
    ClientPopulation,
    PopulationConfig,
    SHED_DEGRADED,
    SHED_QUEUE_FULL,
    SHED_THROTTLED,
)
from repro.shard import ShardConfig, ShardedSystem
from repro.sim import Simulator
from repro.sim.rng import derive_trial_seed
from repro.workloads import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    ParetoArrivals,
    PoissonArrivals,
    kv_workload,
)


# ----------------------------------------------------------------------
# Arrival processes: empirical rates
# ----------------------------------------------------------------------
def _empirical_rate(process, n_clients, ticks=2000, dt=100.0, seed=1):
    stream = Simulator(seed=seed).rng.stream("arrivals")
    total = sum(
        process.sample(stream, i * dt, dt, n_clients) for i in range(ticks)
    )
    return total / (ticks * dt)


def test_poisson_empirical_rate():
    rate = 2e-6  # per client per ms
    n = 100_000
    measured = _empirical_rate(PoissonArrivals(rate), n)
    assert measured == pytest.approx(n * rate, rel=0.1)


def test_poisson_rate_scales_with_population():
    small = _empirical_rate(PoissonArrivals(1e-6), 10_000)
    large = _empirical_rate(PoissonArrivals(1e-6), 1_000_000)
    assert large == pytest.approx(100 * small, rel=0.2)


def test_pareto_empirical_rate_and_burstiness():
    rate = 2e-6
    n = 100_000
    process = ParetoArrivals(rate, alpha=1.7)
    measured = _empirical_rate(process, n, ticks=5000)
    assert measured == pytest.approx(n * rate, rel=0.25)
    # Heavy-tailed bursts: the per-tick counts must be burstier than a
    # Poisson process of the same mean (some tick far above the mean).
    stream = Simulator(seed=2).rng.stream("bursts")
    counts = [process.sample(stream, i * 100.0, 100.0, n) for i in range(5000)]
    mean = sum(counts) / len(counts)
    assert max(counts) > 5 * mean


def test_diurnal_rate_oscillates():
    process = DiurnalArrivals(2e-6, amplitude=0.5, period=200_000.0)
    n = 100_000
    # Sample the peak and the trough of the cycle directly.
    stream = Simulator(seed=3).rng.stream("diurnal")
    peak = sum(
        process.sample(stream, 50_000.0 - 50.0, 100.0, n) for _ in range(500)
    )
    trough = sum(
        process.sample(stream, 150_000.0 - 50.0, 100.0, n) for _ in range(500)
    )
    assert peak > 2 * trough


def test_flash_crowd_shape():
    base = 2e-6
    process = FlashCrowdArrivals(
        base, spike_start=100_000.0, spike_duration=50_000.0,
        multiplier=10.0, ramp=5_000.0,
    )
    n = 100_000
    stream = Simulator(seed=4).rng.stream("flash")

    def window_rate(t0, t1):
        ticks = int((t1 - t0) / 100.0)
        total = sum(
            process.sample(stream, t0 + i * 100.0, 100.0, n)
            for i in range(ticks)
        )
        return total / (t1 - t0)

    before = window_rate(0.0, 90_000.0)
    during = window_rate(110_000.0, 140_000.0)  # inside spike, past ramp
    after = window_rate(170_000.0, 260_000.0)
    assert before == pytest.approx(n * base, rel=0.15)
    assert during == pytest.approx(10.0 * n * base, rel=0.15)
    assert after == pytest.approx(n * base, rel=0.15)


# ----------------------------------------------------------------------
# Admission control (unit level, faked health signals)
# ----------------------------------------------------------------------
class _FakeDirectory:
    def __init__(self):
        self.degraded = set()

    def is_degraded(self, shard_id):
        return shard_id in self.degraded


class _FakeDetector:
    def __init__(self, level=ThreatLevel.LOW):
        self.level = level


def test_admission_sheds_degraded_first():
    directory = _FakeDirectory()
    directory.degraded.add("s0")
    ctrl = AdmissionController(
        directory, {"s0": _FakeDetector(ThreatLevel.CRITICAL)}
    )
    assert ctrl.decide(["s0"]) == SHED_DEGRADED
    assert ctrl.decide(["s1"]) is None
    assert ctrl.shed_by_reason == {SHED_DEGRADED: 1}
    assert ctrl.admitted == 1


def test_admission_throttles_on_threat_level():
    directory = _FakeDirectory()
    detectors = {"s0": _FakeDetector(ThreatLevel.CRITICAL)}
    rng = Simulator(seed=5).rng.stream("admission")
    ctrl = AdmissionController(directory, detectors, rng)
    decisions = [ctrl.decide(["s0"]) for _ in range(1000)]
    throttled = sum(1 for d in decisions if d == SHED_THROTTLED)
    assert 400 <= throttled <= 600  # ~50% admit under CRITICAL
    assert ctrl.admitted + ctrl.shed == 1000


# ----------------------------------------------------------------------
# End-to-end populations on a sharded system
# ----------------------------------------------------------------------
def _run_open(seed=11, n_clients=50_000, rate=8e-8, duration=120_000.0,
              kill=None, **pop_kwargs):
    system = ShardedSystem(
        ShardConfig(seed=seed, n_shards=2, enable_rejuvenation=False)
    )
    pop = system.attach_population(
        "pop",
        PopulationConfig(
            n_clients=n_clients,
            workload=kv_workload(keys=64, arrivals=PoissonArrivals(rate)),
            **pop_kwargs,
        ),
    )
    system.start(warmup=60_000.0)
    if kill is not None:
        system.sim.schedule(duration / 2, system.kill_shard, kill)
    system.run(duration)
    return system, pop


def test_open_population_serves_at_offered_rate():
    # 50k clients x 8e-8/ms = 4 ops/s offered, far under capacity: the
    # aggregated engine must deliver the demand it models.
    system, pop = _run_open()
    expected = 50_000 * 8e-8 * 120_000.0
    assert pop.offered == pytest.approx(expected, rel=0.2)
    assert pop.completed == pytest.approx(expected, rel=0.3)
    assert system.is_safe


def test_demand_conservation():
    _, pop = _run_open()
    assert pop.offered == pop.admitted + pop.shed + pop.backlog
    assert pop.admitted == pop.completed + pop.failures + pop.inflight


def test_kill_shard_sheds_degraded_and_survivor_serves():
    system, pop = _run_open(duration=180_000.0, kill="s1")
    assert system.directory.degraded_shards() == ["s1"]
    assert pop.shed_by_reason.get(SHED_DEGRADED, 0) > 0
    # The last 60k ms of the run are entirely post-kill (+settling).
    assert pop.completions_in(system.sim.now - 60_000.0, system.sim.now) > 0
    assert all(system.shard_safe(s) for s in system.directory.live_shards())
    assert pop.offered == pop.admitted + pop.shed + pop.backlog


def test_queue_full_shedding():
    # Overwhelm a tiny queue: overflow is shed with reason queue_full
    # and conservation still holds exactly.
    _, pop = _run_open(
        rate=4e-5, duration=60_000.0, queue_limit=16, max_inflight=4
    )
    assert pop.shed_by_reason.get(SHED_QUEUE_FULL, 0) > 0
    assert pop.offered == pop.admitted + pop.shed + pop.backlog


def test_population_memory_is_o_populations_not_o_clients():
    # Same aggregate offered rate from 100 vs 1,000,000 modeled clients:
    # identical seed => identical draws => identical service, and the
    # internal state never grows with the modeled count.
    _, small = _run_open(n_clients=100, rate=4e-5)
    _, large = _run_open(n_clients=1_000_000, rate=4e-9)
    assert small.offered == large.offered
    assert small.completed == large.completed
    assert small.state_footprint() == large.state_footprint()


def test_determinism_via_derive_trial_seed():
    def fingerprint(seed):
        _, pop = _run_open(seed=seed, duration=60_000.0)
        return json.dumps(
            {
                "offered": pop.offered,
                "admitted": pop.admitted,
                "shed": pop.shed_by_reason,
                "completed": pop.completed,
                "latencies": list(pop.latencies),
            },
            sort_keys=True,
        )

    trial_seed = derive_trial_seed(1234, 7)
    assert fingerprint(trial_seed) == fingerprint(trial_seed)
    assert fingerprint(trial_seed) != fingerprint(derive_trial_seed(1234, 8))


def test_closed_population_matches_per_client_drivers():
    # A closed population of K clients must serve like K independent
    # single-client populations (one router and driver per tenant) — the same
    # engine either way, so throughputs agree closely.
    def run_fleet(grouped):
        system = ShardedSystem(
            ShardConfig(seed=21, n_shards=2, enable_rejuvenation=False)
        )
        if grouped:
            pops = [system.attach_population(
                "fleet",
                PopulationConfig(n_clients=4, mode="closed", think_time=100.0),
            )]
        else:
            pops = [
                system.attach_population(
                    f"c{i}",
                    PopulationConfig(
                        n_clients=1, mode="closed", think_time=100.0
                    ),
                )
                for i in range(4)
            ]
        system.start(warmup=60_000.0)
        system.run(120_000.0)
        return sum(p.completed for p in pops)

    grouped, split = run_fleet(True), run_fleet(False)
    assert grouped > 50
    assert grouped == pytest.approx(split, rel=0.3)


def test_each_populations_reads_are_its_own_workloads():
    """Two populations on one leased system: each router sends reads
    exactly as its own population's workload classifies them."""
    from repro.bft.group import protocol_config_for
    from repro.bft.leases import LeaseConfig
    from repro.bft.messages import ClientRequest
    from repro.workloads import AlternatingKV, UniformKeys

    system = ShardedSystem(ShardConfig(
        seed=5, n_shards=1, protocol="minbft", enable_rejuvenation=False,
        protocol_config=protocol_config_for("minbft", leases=LeaseConfig()),
    ))
    workloads = {
        "kv": kv_workload(keys=8, read_ratio=0.9),
        "alt": AlternatingKV(UniformKeys(8)),
    }
    sent = {name: [] for name in workloads}
    for name, workload in workloads.items():
        population = system.attach_population(name, PopulationConfig(
            n_clients=1, mode="closed", think_time=100.0, workload=workload,
        ))

        def record(dst, message, requests=sent[name]):
            if isinstance(message, ClientRequest):
                requests.append(message)
            return message  # pass it on: the service runs as usual

        population.router.add_outbound_filter(record)
    system.start(warmup=60_000.0)
    system.run(20_000.0)
    assert sent["alt"] and not any(request.read_only for request in sent["alt"])
    assert any(request.lease_read for request in sent["kv"])
    assert system.is_safe


def test_open_mode_requires_arrivals():
    system = ShardedSystem(
        ShardConfig(seed=1, n_shards=2, enable_rejuvenation=False)
    )
    with pytest.raises(ValueError, match="no arrival process"):
        system.attach_population(
            "bad", PopulationConfig(workload=kv_workload(keys=8))
        )


def test_population_config_validation():
    with pytest.raises(ValueError):
        PopulationConfig(n_clients=-1)
    with pytest.raises(ValueError):
        PopulationConfig(mode="half-open")
    with pytest.raises(ValueError):
        PopulationConfig(tick=0)
    with pytest.raises(ValueError):
        PopulationConfig(max_inflight=0)


def test_population_stop_halts_demand():
    system, pop = _run_open(duration=30_000.0)
    offered_at_stop = pop.offered
    pop.stop()
    system.run(30_000.0)
    assert pop.offered == offered_at_stop


def test_population_metrics_published():
    system, pop = _run_open(duration=60_000.0)
    metrics = system.chip.metrics
    assert metrics.counter("mesoscale.pop.offered").value == pop.offered
    assert metrics.counter("mesoscale.pop.admitted").value == pop.admitted
    assert metrics.counter("mesoscale.pop.completed").value == pop.completed


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
def test_mesoscale_campaign_runner():
    from repro.campaign.runners import get_runner

    result = get_runner("mesoscale")(
        {
            "duration": 60_000.0,
            "warmup": 60_000.0,
            "n_clients": 100_000,
            "n_populations": 2,
            "rate_per_client": 4e-8,
            "kill_shard": "s1",
        },
        seed=3,
    )
    assert result["modeled_clients"] == 100_000
    assert result["ops"] > 0
    assert result["offered"] == result["admitted"] + result["shed"] \
        + result["backlog"]
    assert result["shed_degraded"] > 0
    assert result["degraded_shards"] == 1
    assert result["safe"] == 1

"""Layer probes: one small wall-clock rate per layer, through public calls only.

A probe isolates a layer the service workloads only exercise in a mix, so a
per-layer change can be seen (or seen *not* to reach the service path) beside
the end-to-end numbers.  Each probe runs 0.2-1 s and reports the median of
``REPS`` repetitions; their deterministic results are asserted to repeat.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.campaign import CampaignExecutor, ResultStore, build_campaign, write_summary
from repro.crypto.keys import KeyStore
from repro.crypto.mac import Authenticator, digest
from repro.hybrids.usig import Usig, UsigVerifier
from repro.noc.network import NocNetwork
from repro.noc.topology import Coord, MeshTopology
from repro.shard.directory import ShardDirectory
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig

REPS = 5
HERE = Path(__file__).resolve().parent

#: A probe returns (units of work done, wall seconds, deterministic fingerprint).
Probe = Callable[[], Tuple[float, float, object]]


def _noop() -> None:
    pass


def _kernel(cancel: bool, events: int = 80_000, timers: int = 4096) -> Tuple[float, float, object]:
    """Self-rescheduling no-op events over ``timers`` pending ones.

    With ``cancel`` every firing also re-arms a long timeout and cancels the
    previous one — the request-timeout pattern: half of everything scheduled
    is cancelled before it fires and the heap carries the dead entries.
    """
    sim = Simulator()
    left = [events - timers]
    timeouts = [None] * timers

    def tick(i: int) -> None:
        if left[0] > 0:
            left[0] -= 1
            sim.schedule(1.0 + (i * 7919) % 97, tick, i)
            if cancel:
                if timeouts[i] is not None:
                    timeouts[i].cancel()
                timeouts[i] = sim.schedule(30_000.0, _noop)

    for i in range(timers):
        sim.schedule(float(i % 97), tick, i)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_fired, wall, sim.events_fired


def _noc_stream(packets: int = 15_000) -> Tuple[float, float, object]:
    """P1a's shape: one packet in flight corner to corner on 12x12."""
    sim = Simulator()
    net = NocNetwork(sim, MeshTopology(12, 12))
    src, dst = Coord(0, 0), Coord(11, 11)
    state = {"sent": 1, "done": 0}

    def handler(packet) -> None:
        state["done"] += 1
        if state["sent"] < packets:
            state["sent"] += 1
            net.send(src, dst, None, 64)

    net.attach(dst, handler)
    net.send(src, dst, None, 64)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return state["done"], wall, (state["done"], sim.events_fired, sim.now)


def _noc_contended(packets: int = 20_000) -> Tuple[float, float, object]:
    """64 concurrent flows on 8x8: pending events bound every express batch."""
    sim = Simulator()
    topo = MeshTopology(8, 8)
    net = NocNetwork(sim, topo)
    coords = list(topo.coords())
    state = {"sent": 0, "done": 0}

    def launch(i: int) -> None:
        state["sent"] += 1
        net.send(coords[i], coords[(i * 29 + 17) % 64], i, 64)

    def handler(packet) -> None:
        state["done"] += 1
        if state["sent"] < packets:
            launch(packet.payload)

    for coord in coords:
        net.attach(coord, handler)
    for i in range(64):
        launch(i)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return state["done"], wall, (state["done"], sim.events_fired, sim.now)


def _crypto(rounds: int = 8_000) -> Tuple[float, float, object]:
    keys = KeyStore()
    recipients = ["r1", "r2", "r3"]
    last = None
    start = time.perf_counter()
    for i in range(rounds):
        payload = ("pre-prepare", 0, i, b"\x5a" * 256)
        auth = Authenticator.create("r0", recipients, payload, keys.pair_key)
        for r in recipients:
            if not auth.verify(r, payload, keys.pair_key):
                raise AssertionError("authenticator failed to verify")
        last = auth.macs["r3"]
    wall = time.perf_counter() - start
    return rounds, wall, last


def _usig(rounds: int = 6_000) -> Tuple[float, float, object]:
    keys = KeyStore()
    usig, verifier = Usig("r0", keys), UsigVerifier(keys)
    d = digest(("request", 1))
    start = time.perf_counter()
    for _ in range(rounds):
        ui = usig.create_ui(d)
        if not verifier.verify_ui(ui, d):
            raise AssertionError("UI failed to verify")
    wall = time.perf_counter() - start
    return rounds, wall, (ui.counter, ui.mac)


def _bft(protocol: str, duration: float = 150_000.0) -> Tuple[float, float, object]:
    """One unsharded f=1 group on 6x6 with 4 closed-loop clients."""
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=6, height=6))
    group = build_group(chip, GroupConfig(protocol=protocol, f=1, group_id="b"))
    clients = [ClientNode(f"c{i}", ClientConfig(think_time=50.0)) for i in range(4)]
    for client in clients:
        group.attach_client(client)
        client.start()
    sim.run(until=10_000.0)
    before = sum(c.completed for c in clients)
    start = time.perf_counter()
    sim.run(until=10_000.0 + duration)
    wall = time.perf_counter() - start
    commits = sum(c.completed for c in clients) - before
    if not group.safety.is_safe:
        raise AssertionError(f"{protocol} probe violated safety")
    return commits, wall, (commits, sim.events_fired)


def _lookups(keys: int = 100_000) -> Tuple[float, float, object]:
    directory = ShardDirectory([f"s{i}" for i in range(4)], salt=2)
    names = [f"k{i}" for i in range(keys)]
    start = time.perf_counter()
    owned = sum(directory.shard_for(name) == "s0" for name in names)
    wall = time.perf_counter() - start
    return keys, wall, owned


def _campaign_trials() -> Tuple[float, float, object]:
    """60 short fault-injection trials through executor, store and summary."""
    spec = build_campaign(
        "faultspace", n_seeds=12, base_overrides={"duration": 5_000.0, "warmup": 30_000.0}
    )
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as root:
        start = time.perf_counter()
        with ResultStore(root, spec) as store:
            stats = CampaignExecutor(spec, store, workers=1).run()
            write_summary(store)
            summary = store.summary_path.read_bytes()
        wall = time.perf_counter() - start
    if stats.failed or stats.succeeded != len(spec.trials()):
        raise AssertionError(f"campaign probe: {stats.succeeded} ok, {stats.failed} failed")
    return stats.succeeded, wall, summary


def _store_appends(records: int = 2_000) -> Tuple[float, float, object]:
    spec = build_campaign("smoke")
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as root:
        start = time.perf_counter()
        with ResultStore(root, spec) as store:
            for i in range(records):
                store.append({"trial_id": f"t{i}", "status": "ok", "metrics": {"x": i}})
        with ResultStore(root, spec) as store:  # resume: streaming re-scan
            resumed = len(store.completed_ids())
        wall = time.perf_counter() - start
    return records, wall, resumed


PROBES: Dict[str, Probe] = {
    "sim.probe_events_per_s": lambda: _kernel(cancel=False),
    "sim.probe_cancel_events_per_s": lambda: _kernel(cancel=True),
    "noc.probe_stream_packets_per_s": _noc_stream,
    "noc.probe_contended_packets_per_s": _noc_contended,
    "crypto.probe_auth_per_s": _crypto,
    "hybrids.probe_usig_per_s": _usig,
    "bft.probe_minbft_commits_per_wall_s": lambda: _bft("minbft"),
    "bft.probe_pbft_commits_per_wall_s": lambda: _bft("pbft"),
    "shard.probe_lookups_per_s": _lookups,
    "campaign.probe_trials_per_wall_s": _campaign_trials,
    "campaign.probe_store_appends_per_s": _store_appends,
}


def run_probes(reps: int = REPS) -> Dict[str, float]:
    """Median rate of every probe; raises if a deterministic result drifts."""
    out: Dict[str, float] = {}
    for name, probe in PROBES.items():
        rates: List[float] = []
        fingerprints = []
        for _ in range(reps):
            work, wall, fingerprint = probe()
            rates.append(work / wall)
            fingerprints.append(fingerprint)
        if any(f != fingerprints[0] for f in fingerprints):
            raise AssertionError(f"{name}: deterministic result changed between repetitions")
        out[name] = statistics.median(rates)
    return out

"""P1 — perf: the NoC express path and simulator-kernel hot-path overhaul.

Unlike E1-E12 this bench measures *wall-clock* performance of the
simulator itself, not a paper claim.  Links are arbitrated by (arrival
at the router, packet id) and every NoC event fires at ``(time, 1 +
packet_id)``, so a packet's timing is a function of simulated time and
ids alone.  The express path uses that: on a healthy route it reserves
every hop in the links' calendars when the packet is sent and fires one
event, the delivery; a reservation that a later send overtakes is
re-timed (one more event).  Same seed, same results, byte for byte,
with the fast path on or off.

The fast-path gate is *per compiled route*: a route is reserved ahead
iff every router and link it actually crosses is healthy, so one faulty
link elsewhere on the mesh does not drag unrelated traffic onto the
slow path.

Scenarios:

* P1a — fault-free stream: a closed-loop corner-to-corner packet
  stream (one packet in flight, 22 hops: the most the express path can
  save); wall-clock packets/sec and events/sec with express routing on
  vs off (best-of-N pairing to damp machine noise).
* P1e — contended: 64 closed-loop flows on 8x8 (the shape of
  ``noc.probe_contended_packets_per_s``), where reservations overtake
  each other and packets are re-timed; packets/sec and events both ways.
* P1b — fault on the route: one degraded link *on* the stream's XY
  path clears the route's ``fault_free`` and forces the hop-by-hop
  slow path in both configurations; the express config must converge
  to baseline behaviour (identical event counts and deliveries —
  asserted deterministically).
* P1c — exactness: the smoke campaign's ``summary.json`` must be
  byte-identical with ``REPRO_NOC_EXPRESS`` on and off.
* P1d — fault elsewhere: the same degraded link as before the per-route
  gate existed (off the stream's path); the stream's route stays
  fault-free so express must keep its full event economy while
  delivering the exact baseline outcome.

Shape assertions:
* express delivers >= 2x the packets/sec of hop-by-hop (the P1 gate);
* express fires at most 1/5th the events of hop-by-hop (deterministic);
* both modes end at the same simulated time with all packets delivered;
* P1e: same deliveries and final time, at most half the events, and
  express is not slower than hop-by-hop;
* P1b (on-route fault) event counts match baseline exactly;
* P1d (off-route fault) keeps the 1/5th event economy and the exact
  baseline deliveries/sim time;
* P1c summaries are byte-identical.

Standalone (CI smoke): ``python benchmarks/bench_p1_hotpath.py --smoke``
runs reduced sizes with a relaxed wall-clock gate (shared runners are
noisy) but the full deterministic assertions.
"""

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once  # noqa: E402  (also sets REPRO_TABLE_LOG)

from repro.metrics import Table  # noqa: E402
from repro.noc.network import NocConfig, NocNetwork  # noqa: E402
from repro.noc.topology import Coord, MeshTopology  # noqa: E402
from repro.sim import Simulator  # noqa: E402

MESH_W = 12
MESH_H = 12
PACKETS = 15_000
TRIALS = 3
RATIO_GATE = 2.0
SMOKE_PACKETS = 3_000
SMOKE_TRIALS = 2
SMOKE_RATIO_GATE = 1.2  # sanity floor only: shared CI runners are noisy
EVENT_FACTOR = 5  # express must use <= 1/5th the events (deterministic)
CONTENDED_PACKETS = 20_000
SMOKE_CONTENDED_PACKETS = 4_000
CONTENDED_EVENT_FACTOR = 2  # contended: re-timed packets cost an event each
CONTENDED_RATIO_GATE = 1.0  # express must not be slower where packets are re-timed
SMOKE_CONTENDED_RATIO_GATE = 0.8  # sanity floor only, as above


def measured(sim, delivered, wall):
    """What one run reports: deterministic counts plus wall-clock rates."""
    return {
        "delivered": delivered,
        "events": sim.events_fired,
        "sim_now": sim.now,
        "wall_s": wall,
        "pkt_per_s": delivered / wall,
        "events_per_s": sim.events_fired / wall,
    }


def stream_run(express, n_packets, degrade=None):
    """One closed-loop corner-to-corner stream; returns measured rates.

    The delivery handler injects the next packet, so exactly one packet
    is in flight at a time and the express path saves the most it can
    (22 hop events per packet).  ``degrade`` optionally names a link to put into
    corrupting mode before traffic starts — on the stream's route for
    P1b, elsewhere on the mesh for P1d.
    """
    sim = Simulator()
    topo = MeshTopology(MESH_W, MESH_H)
    net = NocNetwork(sim, topo, NocConfig(express_routing=express))
    if degrade is not None:
        net.degrade_link(*degrade)
    src, dst = Coord(0, 0), Coord(MESH_W - 1, MESH_H - 1)
    state = {"sent": 0, "done": 0}

    def handler(packet):
        state["done"] += 1
        if state["sent"] < n_packets:
            state["sent"] += 1
            net.send(src, dst, None, 64)

    net.attach(dst, handler)
    state["sent"] += 1
    net.send(src, dst, None, 64)
    wall_start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall_start
    return measured(sim, state["done"], wall)


def contended_run(express, n_packets):
    """64 closed-loop flows on 8x8: every delivery launches its flow's
    next packet, so reservations made at send time keep overtaking each
    other on shared links."""
    sim = Simulator()
    topo = MeshTopology(8, 8)
    net = NocNetwork(sim, topo, NocConfig(express_routing=express))
    coords = list(topo.coords())
    state = {"sent": 0, "done": 0}

    def launch(i):
        state["sent"] += 1
        net.send(coords[i], coords[(i * 29 + 17) % 64], i, 64)

    def handler(packet):
        state["done"] += 1
        if state["sent"] < n_packets:
            launch(packet.payload)

    for coord in coords:
        net.attach(coord, handler)
    for i in range(64):
        launch(i)
    wall_start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall_start
    return measured(sim, state["done"], wall)


def best_of(trials, run, *args):
    """Best wall-clock rate over ``trials`` calls of ``run(*args)`` (noise
    only slows runs, never speeds them, so the max is the
    least-contaminated sample).  Deterministic fields are asserted
    invariant across trials."""
    runs = [run(*args) for _ in range(trials)]
    assert len({r["events"] for r in runs}) == 1
    assert len({r["sim_now"] for r in runs}) == 1
    return max(runs, key=lambda r: r["pkt_per_s"])


def print_on_off(tag, title, express, baseline):
    """One express / hop-by-hop table with the packets/sec speedup."""
    table = Table(
        tag,
        ["mode", "packets", "events", "pkt/s (wall)", "events/s (wall)", "speedup"],
        title=title,
    )
    for label, r in (("express", express), ("hop-by-hop", baseline)):
        table.add_row([
            label,
            r["delivered"],
            r["events"],
            round(r["pkt_per_s"]),
            round(r["events_per_s"]),
            round(r["pkt_per_s"] / baseline["pkt_per_s"], 2),
        ])
    table.print()


def campaign_summary_bytes(express, duration):
    """Run the smoke campaign in-process and return summary.json's bytes."""
    from repro.campaign import CampaignExecutor, ResultStore, build_campaign, write_summary

    previous = os.environ.get("REPRO_NOC_EXPRESS")
    os.environ["REPRO_NOC_EXPRESS"] = "1" if express else "0"
    try:
        spec = build_campaign("smoke", base_overrides={"duration": duration})
        root = tempfile.mkdtemp(prefix="p1-identity-")
        store = ResultStore(root, spec).open()
        CampaignExecutor(spec, store).run()
        write_summary(store)
        return store.summary_path.read_bytes()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NOC_EXPRESS", None)
        else:
            os.environ["REPRO_NOC_EXPRESS"] = previous


def experiment(smoke=False):
    n_packets = SMOKE_PACKETS if smoke else PACKETS
    trials = SMOKE_TRIALS if smoke else TRIALS
    ratio_gate = SMOKE_RATIO_GATE if smoke else RATIO_GATE

    express = best_of(trials, stream_run, True, n_packets)
    baseline = best_of(trials, stream_run, False, n_packets)
    # One bounded retry round if a noise spike ate the margin: re-pair
    # both sides so the comparison stays honest.
    if express["pkt_per_s"] < ratio_gate * baseline["pkt_per_s"]:
        rerun = stream_run(True, n_packets)
        if rerun["pkt_per_s"] > express["pkt_per_s"]:
            express = rerun
        rerun = stream_run(False, n_packets)
        if rerun["pkt_per_s"] > baseline["pkt_per_s"]:
            baseline = rerun
    ratio = express["pkt_per_s"] / baseline["pkt_per_s"]

    print_on_off(
        "P1a", f"Fault-free corner-to-corner stream, {MESH_W}x{MESH_H} mesh", express, baseline
    )

    n_contended = SMOKE_CONTENDED_PACKETS if smoke else CONTENDED_PACKETS
    contended_express = best_of(trials, contended_run, True, n_contended)
    contended_baseline = best_of(trials, contended_run, False, n_contended)
    print_on_off(
        "P1e", "64 contended closed-loop flows, 8x8 mesh", contended_express, contended_baseline
    )

    # P1b: a degraded link *on* the XY route (the X leg along y=0)
    # clears the compiled route's fault_free and forces the slow path.
    on_route = (Coord(5, 0), Coord(6, 0))
    faulty_express = best_of(1, stream_run, True, n_packets, on_route)
    faulty_baseline = best_of(1, stream_run, False, n_packets, on_route)
    fb = Table(
        "P1b",
        ["mode", "packets", "events", "pkt/s (wall)", "sim time"],
        title="Same stream with one degraded on-route link (slow path forced)",
    )
    for label, r in (("express cfg", faulty_express), ("hop-by-hop", faulty_baseline)):
        fb.add_row([label, r["delivered"], r["events"], round(r["pkt_per_s"]), r["sim_now"]])
    fb.print()

    # P1d: the same fault placed *off* the route (the y column at x=0,
    # which the XY path from (0,0) never climbs).  The per-route gate
    # must keep this stream on the express path.
    off_route = (Coord(0, 5), Coord(0, 6))
    elsewhere_express = best_of(1, stream_run, True, n_packets, off_route)
    elsewhere_baseline = best_of(1, stream_run, False, n_packets, off_route)
    fd = Table(
        "P1d",
        ["mode", "packets", "events", "pkt/s (wall)", "sim time"],
        title="Same stream with one degraded link elsewhere (express kept)",
    )
    for label, r in (("express cfg", elsewhere_express), ("hop-by-hop", elsewhere_baseline)):
        fd.add_row([label, r["delivered"], r["events"], round(r["pkt_per_s"]), r["sim_now"]])
    fd.print()

    identity_duration = 20_000.0 if smoke else 60_000.0
    summary_on = campaign_summary_bytes(True, identity_duration)
    summary_off = campaign_summary_bytes(False, identity_duration)
    identical = summary_on == summary_off
    ic = Table(
        "P1c",
        ["campaign", "summary bytes", "byte-identical"],
        title="Smoke campaign summary.json, express on vs off",
    )
    ic.add_row(["smoke", len(summary_on), "yes" if identical else "NO"])
    ic.print()

    return {
        "express": express,
        "baseline": baseline,
        "contended_express": contended_express,
        "contended_baseline": contended_baseline,
        "faulty_express": faulty_express,
        "faulty_baseline": faulty_baseline,
        "elsewhere_express": elsewhere_express,
        "elsewhere_baseline": elsewhere_baseline,
        "ratio": ratio,
        "ratio_gate": ratio_gate,
        "contended_ratio_gate": SMOKE_CONTENDED_RATIO_GATE if smoke else CONTENDED_RATIO_GATE,
        "identical": identical,
    }


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    express = results["express"]
    baseline = results["baseline"]
    # All packets delivered, and the express path changed *nothing*
    # observable: identical final simulated time in both modes.
    assert express["delivered"] == baseline["delivered"]
    assert express["sim_now"] == baseline["sim_now"]
    # Deterministic event economy: batching collapses per-hop events.
    assert express["events"] * EVENT_FACTOR <= baseline["events"]
    # The wall-clock gate.
    assert results["ratio"] >= results["ratio_gate"], (
        f"express speedup {results['ratio']:.2f}x below {results['ratio_gate']}x gate"
    )
    # Contended: identical outcome, and the economy survives re-timing.
    ce, cb = results["contended_express"], results["contended_baseline"]
    assert ce["delivered"] == cb["delivered"]
    assert ce["sim_now"] == cb["sim_now"]
    assert ce["events"] * CONTENDED_EVENT_FACTOR <= cb["events"]
    assert ce["pkt_per_s"] >= results["contended_ratio_gate"] * cb["pkt_per_s"], (
        f"contended: express {ce['pkt_per_s']:.0f} pkt/s against hop-by-hop {cb['pkt_per_s']:.0f}"
    )
    # Under an on-route fault the express config must behave exactly
    # like the slow path: same events, same deliveries, same sim time.
    fe, fb = results["faulty_express"], results["faulty_baseline"]
    assert fe["events"] == fb["events"]
    assert fe["delivered"] == fb["delivered"]
    assert fe["sim_now"] == fb["sim_now"]
    # A fault *elsewhere* must not cost this route its express path:
    # full event economy, exact baseline outcome.
    ee, eb = results["elsewhere_express"], results["elsewhere_baseline"]
    assert ee["events"] * EVENT_FACTOR <= eb["events"]
    assert ee["delivered"] == eb["delivered"]
    assert ee["sim_now"] == eb["sim_now"]
    # Exactness at campaign scale: byte-identical summary.json.
    assert results["identical"]


def test_p1_hotpath(benchmark):
    check(run_once(benchmark, experiment))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    print(
        f"P1 {'smoke ' if smoke else ''}OK: {outcome['ratio']:.2f}x packets/sec, "
        f"{outcome['express']['events_per_s']:,.0f} events/s express, "
        f"byte-identical={outcome['identical']}"
    )

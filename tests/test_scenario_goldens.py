"""Goldens for "flat parameters → running service → measured window".

Every simulating campaign runner, and every CLI command that assembles a
service by hand, is pinned here by a sha256 of what it returns or prints
for a short seeded run.  Together the points take every branch of trial
assembly: all four protocol families, batching on / off / pipelined-only,
rejuvenation on / off, the four arrival processes, a mid-window shard
kill, leases on / off with and without batching, the APT race with and
without rejuvenation, feasible and infeasible ``evolve`` genomes, and the
two ``faultspace`` targets on node, link, register and tile strata.

**Captured at 39cc10e (the parent of the PR that moved trial assembly
into ``repro.campaign.scenario``) and not regenerated by it** — the
``tests/test_bft_ordering_core.py`` pattern: a refactor of how a trial is
built must leave these alone; a PR that means to change what a runner
simulates or reports updates them knowingly and says so.  The file uses
only ``get_runner(name)(params, seed)`` and ``repro.cli.main(argv)``, so
it runs unchanged on either side of such a refactor.

**PR 23 regenerated four of them knowingly** — ``batching-on``,
``evolve-feasible``, ``leases-on-batch8`` and the CLI ``leases`` point,
the ones where a partial batch met a round in flight — when it changed
when a partial batch is cut (only into an empty pipeline: DESIGN §4).  A
point that configures no batching must not move with that rule.

**PR 24 regenerated four knowingly** — ``evolve-rejuv-lease``,
``leases-on-batch1``, ``leases-on-batch8`` and the CLI ``leases`` point,
every point that configures leases — when it gave each key one
leaseholder (DESIGN §4 *Who holds a lease*).  A point that configures no
leases must not move with that rule.

**Eight were regenerated knowingly next**, when the critical path was put
first (DESIGN §4 *What the primary does first*): ``throughput-pbft``,
``faultspace-resilient-uniform-norejuv`` and the CLI ``demo-pbft`` point
move with the PBFT rule alone (a vote whose quorum is met is dropped
unverified); ``batching-pipelined-only``, ``evolve-feasible`` and the CLI
``leases`` point with the proposal rule alone (a committed batch proposes
the next one before its executions are charged); ``batching-on`` and
``leases-on-batch8`` (PBFT, batched) with either.  A point that configures
neither PBFT nor a window that pools requests must not move.

**Two were regenerated knowingly when each request got its own number
and deadline** (DESIGN §4 *Who numbers and times a request*):
``leases-on-batch1`` and the CLI ``leases`` point, the overloaded leased
runs where a quorum read that gathers no matching quorum stays open
while a ledger window of later sub-operations to its shard completes.
The router now gives such a sub-operation up (``ops`` 1 671 → 1 650 and
the CLI's leased row 1 592 → 1 552).  No other point moved.

**The four points that configure leases were regenerated knowingly when
a write came to complete on its key holder's licence** (DESIGN §4 *Who
holds a lease*; nothing is revoked on the write path):
``evolve-rejuv-lease`` ops 727 → 738 (p99 3 540 → 3 300),
``leases-on-batch1`` 1 650 → 1 736 (``lease_revoked`` 135 → 0),
``leases-on-batch8`` 877 → 885 (335 → 0) and the CLI ``leases`` point's
leased row 1 552 → 1 727 (126 → 0).  No other point moved.

**Eight were regenerated knowingly when a lagging member came to take
the checkpoint a quorum of its peers share and the log above it**
(DESIGN §4 *What a replica retains*), the points whose members catch up
after a rejuvenation or a fault: ``evolve-rejuv-lease`` ops 738 → 867
(p99 3 300 → 4 100); ``faultspace-resilient-node`` availability 0.875 →
1.0 (completions after the fault 67 → 70); ``faultspace-sharded-node``
57 → 58; ``faultspace-resilient-link``, ``-register``,
``-passive-tile``, ``faultspace-sharded-link`` and ``-register`` one
completion fewer each (62 → 61, 62 → 61, 146 → 145, 104 → 103,
104 → 103).  No other point moved.

**Five were regenerated knowingly when each PBFT copy came to leave as
soon as its own MAC is done** (DESIGN §4 *When a copy leaves*), every
point that runs PBFT and simulates: ``throughput-pbft`` mean latency
1 089 → 1 082 ms (p95 1 202 → 1 082); ``batching-on`` 4 027 → 4 023
(p95 4 445 → 4 447); ``leases-on-batch8`` mean 2 395 → 2 387 (p95
3 500 → 3 540, ordered 449 → 452, local reads 455 → 454);
``faultspace-resilient-uniform-norejuv`` completions after the fault
40 → 45 (tail 10 → 11); and the CLI ``demo-pbft`` point.  Each new hash
is the same with ``REPRO_NOC_EXPRESS=0``.  No other point moved.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.campaign.runners import get_runner
from repro.cli import main


def metrics_digest(metrics):
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cli_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


SHORT = {"duration": 45_000.0}
MESO = {"duration": 45_000.0, "n_clients": 100_000, "rate_per_client": 1e-7}
GENOME = {
    "protocol": "minbft", "f": 1, "batch_size": 4, "batch_inflight": 2,
    "window": 16, "n_shards": 2, "mesh": 6, "rejuv_period": 0, "lease": 0,
    "duration": 30_000.0,
}
FAULT = {"duration": 45_000.0}

# key -> (runner, params, seed)
RUNNER_POINTS = {
    "throughput-minbft": ("throughput", {**SHORT, "protocol": "minbft", "n_clients": 2}, 3),
    "throughput-pbft": ("throughput", {**SHORT, "protocol": "pbft", "n_clients": 2}, 3),
    "throughput-cft": ("throughput", {**SHORT, "protocol": "cft", "think_time": 50.0}, 3),
    "throughput-passive": ("throughput", {**SHORT, "protocol": "passive", "width": 5, "height": 5}, 3),
    "batching-off": ("consensus_batching", {**SHORT, "protocol": "minbft"}, 5),
    "batching-on": (
        "consensus_batching",
        {**SHORT, "protocol": "pbft", "batch_size": 8, "max_inflight": 4,
         "batch_delay": 100.0, "max_outstanding": 8},
        5,
    ),
    "batching-pipelined-only": (
        "consensus_batching",
        {**SHORT, "protocol": "minbft", "max_inflight": 4, "max_outstanding": 4},
        5,
    ),
    "shard-scaling-plain": ("shard_scaling", {**SHORT, "n_shards": 2, "n_clients": 4}, 7),
    "shard-scaling-rejuvenation": (
        "shard_scaling",
        {"duration": 60_000.0, "n_shards": 2, "n_clients": 4, "rejuvenation": True,
         "key_space": 32},
        7,
    ),
    "mesoscale-poisson": ("mesoscale", {**MESO, "process": "poisson"}, 11),
    "mesoscale-pareto": ("mesoscale", {**MESO, "process": "pareto", "alpha": 1.5}, 11),
    "mesoscale-diurnal": ("mesoscale", {**MESO, "process": "diurnal"}, 11),
    "mesoscale-flash": (
        "mesoscale",
        {"duration": 45_000.0, "process": "flash", "n_populations": 3, "queue_limit": 512},
        11,
    ),
    "mesoscale-kill": ("mesoscale", {**MESO, "duration": 60_000.0, "kill_shard": "s1"}, 11),
    "leases-off-batch1": ("leased_reads", {**SHORT, "leases": 0, "batch_size": 1}, 13),
    "leases-off-batch8": ("leased_reads", {**SHORT, "leases": 0}, 13),
    "leases-on-batch1": ("leased_reads", {**SHORT, "leases": 1, "batch_size": 1}, 13),
    "leases-on-batch8": (
        "leased_reads", {**SHORT, "leases": 1, "protocol": "pbft", "read_ratio": 0.5}, 13
    ),
    "rejuv-apt-none": (
        "rejuv_apt", {"period": 0, "horizon": 150_000.0, "mean_effort": 30_000.0}, 17
    ),
    "rejuv-apt-periodic": (
        "rejuv_apt",
        {"period": 20_000.0, "horizon": 150_000.0, "mean_effort": 40_000.0,
         "relocate": False},
        17,
    ),
    "evolve-feasible": ("evolve", dict(GENOME), 19),
    "evolve-infeasible": ("evolve", {**GENOME, "protocol": "pbft", "n_shards": 8, "mesh": 4}, 19),
    "evolve-rejuv-lease": (
        "evolve", {**GENOME, "batch_size": 1, "rejuv_period": 20_000, "lease": 1}, 19
    ),
    "faultspace-resilient-node": ("faultspace", {**FAULT, "stratum": "node:crash"}, 23),
    "faultspace-resilient-link": ("faultspace", {**FAULT, "stratum": "link:link_fail"}, 23),
    "faultspace-resilient-register": ("faultspace", {**FAULT, "stratum": "register:bitflip"}, 23),
    "faultspace-resilient-uniform-norejuv": (
        "faultspace", {**FAULT, "protocol": "pbft", "rejuvenation": False}, 23
    ),
    "faultspace-resilient-passive-tile": (
        "faultspace", {**FAULT, "protocol": "passive", "stratum": "tile:crash"}, 23
    ),
    "faultspace-sharded-node": (
        "faultspace", {**FAULT, "system": "sharded", "stratum": "node:crash"}, 29
    ),
    "faultspace-sharded-link": (
        "faultspace", {**FAULT, "system": "sharded", "stratum": "link:link_fail"}, 29
    ),
    "faultspace-sharded-register": (
        "faultspace", {**FAULT, "system": "sharded", "stratum": "register:bitflip"}, 29
    ),
    "faultspace-sharded-cft-degrade": (
        "faultspace",
        {**FAULT, "system": "sharded", "protocol": "cft", "stratum": "tile:degrade",
         "n_shards": 3, "rejuvenation_period": 10_000.0},
        29,
    ),
}

CLI_POINTS = {
    "demo": ["demo", "--duration", "60000"],
    "demo-pbft": ["demo", "--protocol", "pbft", "--seed", "5", "--duration", "45000"],
    "shard": ["shard", "--shards", "2", "--clients", "3", "--duration", "45000"],
    "shard-kill": [
        "shard", "--shards", "3", "--clients", "3", "--duration", "80000",
        "--kill-shard", "s1", "--no-rejuvenation",
    ],
    "mesoscale-flash-kill": [
        "mesoscale", "--process", "flash", "--kill-shard", "s1", "--duration", "60000",
    ],
    "mesoscale-diurnal": [
        "mesoscale", "--process", "diurnal", "--duration", "30000", "--rate", "1e-7",
        "--populations", "3",
    ],
    "mesoscale-pareto": [
        "mesoscale", "--process", "pareto", "--duration", "30000", "--rate", "1e-7",
        "--shards", "2",
    ],
    "leases": ["leases", "--duration", "45000"],
}

# Captured at 39cc10e (four regenerated in PR 23, the four lease points in PR 24, thirteen since); see the module docstring before touching these.
RUNNER_GOLDENS = {
    "throughput-minbft": "2ce8d5be2f7fec77cc9668195cca92663cc98e985ca21ce8d2206d35f1175220",
    "throughput-pbft": "ab3ddcacf4af2282048a1663e15c4eb1ec9399b39282e3073fc453d8369ebe97",
    "throughput-cft": "ed2cba1d8b3a2b019cdae453a9604a4e0a0806e5c1820e62f13118f97882b006",
    "throughput-passive": "4f9aba93925a76aaae4ddedebb82e4245676f37ba90ce60528e5e074b7d3cdf6",
    "batching-off": "f6f290fcea96143647c77b6294865c6de7f44b0f62524a5e2f7d58c4428503ec",
    "batching-on": "1feeef53c100a8cfe021b3d31a2bbdfbd040b853a097b56ce0e926a133af53f4",
    "batching-pipelined-only": "20e55da9e02321610c20ed981400951f4cb45a41d03d593aea1b0da71d9f22a6",
    "shard-scaling-plain": "2965e09350e4ad57fc750917e5a41208a7dc313c087d1d587c423f88a63f25f5",
    "shard-scaling-rejuvenation": "12ae5375fbcc090c520166a3f3da0dcc803e177ef09482c7d5cda3c522c1373d",
    "mesoscale-poisson": "7efa37feb622dc5d0e8ae83512381259f7895dba1e48bd904094d9ba17f4da5e",
    "mesoscale-pareto": "fd0b888edba8388f61c38fe71cb6fa060cd9bba25facc0158a111cf30dca459b",
    "mesoscale-diurnal": "10d8ed8438f3c801acc5c4aac9a0b0f9acac80c603d1a0a67d5bc50ed3e93add",
    "mesoscale-flash": "9de06df0400c198078b6d5d219c8e90d7c6d7566942490968ee0f7d51e8eaf51",
    "mesoscale-kill": "b070d1ae0e66355fb2d098aa2f54ee401ef7d01d0501be3b5c61fd4295565e66",
    "leases-off-batch1": "b5d0bfe9db046fbd53e58d75dfe000748583406ebe9aa44c7c024066385c5fde",
    "leases-off-batch8": "3673ee1daf84bbe0c9bc1458549c9b6bd250976138fc10bb8cc6dab4b3147ca7",
    "leases-on-batch1": "113362e57a66d38975df9c2ec247a65edfd848341e8b53123b53a73751d88e63",
    "leases-on-batch8": "c67e217a2cb1fa4c7e20a194671ee545b68d4a1d2e0b247d3bd99d5ede7ea691",
    "rejuv-apt-none": "32f4c8f5b76257291f29a9fbdd195f04fa4f81f1c06c83a36cf8d9cdec41e880",
    "rejuv-apt-periodic": "59504d6a80e5dbe86a9ac34268789782d672fda7068cc2267dbd8c334eece4ec",
    "evolve-feasible": "78be8ad6fcf3397a07129c835bfc71873deb8a5b6782739e1dbbc894345f86e9",
    "evolve-infeasible": "146df23a4c635babd5e13d039030772a940ddaa2263307566fea00540a09c762",
    "evolve-rejuv-lease": "d46cfe50e96f2233b2a55f1397e566c1562c64c6b91544c38d759d6cfb02e2ef",
    "faultspace-resilient-node": "1c450407e28b1dddf027601b40f12972bb48b1b412cfff144096f5a117871631",
    "faultspace-resilient-link": "c8e0b54a6edd3da9ea9a7704e0cfba181b79b6189291798de4ef2dfa6cbe4935",
    "faultspace-resilient-register": "18c6ff4c1bd11e888e707bc2356e29223a5a6d83a65ae19f4a904c0f61a1ac9a",
    "faultspace-resilient-uniform-norejuv": "4ebd3643164a494e0cced1978e06864b4df335dd31104be6b4f7bb711d8eaba8",
    "faultspace-resilient-passive-tile": "6fe248f80d0c543f6749c5d1294adfae02597e4289357f5b7ac517e32e81c8a7",
    "faultspace-sharded-node": "75291d8f509a11a179c1b6e11c09ad648df495681db67df2680dd6097a6016d1",
    "faultspace-sharded-link": "b23f6a696097c24fcfd882f73743b7633df7305d905cffb0669c11ced9e2fe44",
    "faultspace-sharded-register": "c9614815de72d8e16d29bf12d4f2d231e7ac0758b6bd752165b85fa44835c811",
    "faultspace-sharded-cft-degrade": "648d3e5dd076d995a0de40d0043b04aeaaae5ab95e321a591b1349213a1354a5",
}

# (exit code, sha256 of stdout)
CLI_GOLDENS = {
    "demo": (0, "3fb426c34fd0c28be9408b9165f79bfcc98ebd590010ee21901cfa4aee66d5fa"),
    "demo-pbft": (0, "baf6717cbb33254d3e09ffa1c4920b271773ec862b826e49c28fedc240fabde9"),
    "shard": (0, "c15548bdbd91fbc32f6c5118f70579b50f24dc0bda59c7107b03188c34c7ecb3"),
    "shard-kill": (0, "7b239133b378ba8cd425016a9a4aae53071b6d184ea386b90ad31eaf72ef1e86"),
    "mesoscale-flash-kill": (0, "6f6485e8a6d7e23a2919948d23a3fab18ac3f01581bd7321e6c14bed171b6581"),
    "mesoscale-diurnal": (0, "3bc47a3c8c771d2face8ab4c7919fbbea4b7fcb800e8eea517912ae329866430"),
    "mesoscale-pareto": (0, "7b9483e6e290ec16caa3d89533cee80284ea6fb25c876dd150cb8cbd3d685c74"),
    "leases": (0, "2d0ae1fb9b83e8f4f179e33e7d79f4bcf566c5840d96c42682b5a6062a52a1f0"),
}


@pytest.mark.parametrize("key", sorted(RUNNER_POINTS))
def test_runner_metrics_are_pinned(key):
    runner, params, seed = RUNNER_POINTS[key]
    assert metrics_digest(get_runner(runner)(dict(params), seed)) == RUNNER_GOLDENS[key]


@pytest.mark.parametrize("key", sorted(CLI_POINTS))
def test_cli_stdout_is_pinned(key):
    assert cli_digest(CLI_POINTS[key]) == CLI_GOLDENS[key]

"""The runner registry's parameter tables, and what is checked against them.

Each built-in runner states its parameter names and defaults once, in a
table; these tests keep everything that could restate them honest: the
docstrings, ``build_campaign``'s override check, and the one window
function's early ``kill_shard`` check.
"""

import re

import pytest

import repro.campaign.runners as runners
from repro.bft import ClientConfig, ClientNode, GroupConfig, build_group
from repro.campaign import build_campaign, get_runner, scenario
from repro.campaign.builtin import BUILTIN_CAMPAIGNS
from repro.campaign.runners import RUNNERS, runner_params
from repro.campaign.spec import CampaignSpec
from repro.shard import ShardedSystem
from repro.sim import Simulator
from repro.soc import Chip, ChipConfig


def _backticked(text):
    return set(re.findall(r"``([a-z_0-9]+)``", text))


# ----------------------------------------------------------------------
# Docstrings are checked against the tables, not maintained beside them
# ----------------------------------------------------------------------
def test_module_docstring_lists_exactly_the_registered_runners():
    builtins = runners.__doc__.split("Built-ins:")[1]
    listed = set(re.findall(r"^\* ``([a-z_]+)``", builtins, flags=re.M))
    # Other test modules register ad-hoc runners; the built-ins are the
    # ones defined in the module itself.
    defined = {n for n, fn in RUNNERS.items() if fn.__module__ == runners.__name__}
    assert listed == defined


@pytest.mark.parametrize("name", sorted(
    n for n, fn in RUNNERS.items() if "Params:" in (fn.__doc__ or "")
))
def test_params_paragraph_names_exactly_the_table(name):
    paragraph = RUNNERS[name].__doc__.split("Params:")[1].split("\n\n")[0]
    assert _backticked(paragraph) == set(runner_params(name))


def test_every_builtin_runner_declares_a_documented_table():
    documented = {
        id(runner_params(n)) for n, fn in RUNNERS.items() if "Params:" in (fn.__doc__ or "")
    }
    for name, fn in RUNNERS.items():
        if fn.__module__ == runners.__name__:
            # evolve_selftest shares the table the evolve docstring lists.
            assert id(runner_params(name)) in documented, name


def test_builtin_specs_state_no_parameter_their_runner_does_not_declare():
    for name in BUILTIN_CAMPAIGNS:
        spec = build_campaign(name)
        declared = set(runner_params(spec.runner))
        assert set(spec.base) <= declared, name


# ----------------------------------------------------------------------
# resolve(): defaults, coercion, pass-through
# ----------------------------------------------------------------------
def test_resolve_types_values_like_their_defaults():
    table = {"duration": 100.0, "f": 1, "leases": False, "kill_shard": "", "period": None}
    p = scenario.resolve(table, {"duration": 60000, "leases": 1, "policy": "none"})
    assert p["duration"] == 60000.0 and isinstance(p["duration"], float)
    assert p["leases"] is True
    assert p["f"] == 1 and p["kill_shard"] == "" and p["period"] is None
    assert p["policy"] == "none"  # a label axis the table does not list
    # None stands for "not given" and is never coerced.
    assert scenario.resolve(table, {"kill_shard": None, "period": 5})["kill_shard"] is None
    assert scenario.resolve(table, {"period": 5})["period"] == 5


def test_floor_p95_is_not_the_nearest_rank_percentile():
    from repro.metrics.stats import percentile

    sample = [float(i) for i in range(1, 11)]
    assert scenario.floor_p95(sample) == 9.0  # x[int(0.95 * 9)] = x[8]
    assert percentile(sample, 95.0) == 10.0  # x[ceil(9.5) - 1] = x[9]
    assert scenario.floor_p95([]) == 0.0


# ----------------------------------------------------------------------
# A --set name no trial would read is refused, not run under a new hash
# ----------------------------------------------------------------------
def test_override_of_an_undeclared_name_is_refused():
    with pytest.raises(ValueError, match=r"'duraton'.*known: .*duration"):
        build_campaign("smoke", base_overrides={"duraton": 1000})
    with pytest.raises(ValueError, match="'n_shard'"):
        build_campaign("faultspace", base_overrides={"n_shard": 3})
    with pytest.raises(ValueError, match="'duraton'"):
        build_campaign("smoke", base_overrides={"duration": 1.0, "duraton": 1})


def test_declared_parameters_and_label_axes_can_be_overridden():
    spec = build_campaign("smoke", base_overrides={"duration": 1000, "warmup": 5.0})
    assert spec.base["duration"] == 1000 and spec.base["warmup"] == 5.0
    # Label axes are not runner parameters and keep working.
    build_campaign("rejuv-apt", base_overrides={"policy": "x", "horizon": 1.0})
    build_campaign("scaling", base_overrides={"batch": 1, "crash": True})
    # A runner parameter that is in neither base nor axes of the spec.
    build_campaign("faultspace", base_overrides={"system": "sharded", "n_shards": 3})
    build_campaign("mesoscale", base_overrides={"kill_shard": "s1", "alpha": 1.5})


def test_runner_without_a_table_is_not_checked(monkeypatch):
    def factory(n_seeds=1, campaign_seed=0):
        return CampaignSpec(name="adhoc", runner="runner_without_a_table",
                            n_seeds=n_seeds, campaign_seed=campaign_seed)

    monkeypatch.setitem(BUILTIN_CAMPAIGNS, "adhoc", factory)
    assert runner_params("runner_without_a_table") is None
    assert build_campaign("adhoc", base_overrides={"anything": 1}).base == {"anything": 1}


# ----------------------------------------------------------------------
# kill_shard is validated before the simulation it would ruin
# ----------------------------------------------------------------------
def test_unknown_kill_shard_fails_before_any_event_runs(monkeypatch):
    def must_not_start(self, warmup=0.0):
        raise AssertionError("the service was started before kill_shard was checked")

    monkeypatch.setattr(ShardedSystem, "start", must_not_start)
    with pytest.raises(ValueError, match=r"unknown shard 's9'; have s0, s1, s2, s3"):
        get_runner("mesoscale")({"kill_shard": "s9", "duration": 10_000.0}, 1)


# ----------------------------------------------------------------------
# One failover timeout for every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "minbft", "cft", "passive"])
def test_failover_timeout_arms_the_timer_that_suspects_the_primary(protocol):
    """``failover_timeout`` is every family's ``view_timeout``: the
    progress timer a pending request arms (PBFT, MinBFT, CFT), or the
    passive backup's heartbeat detector."""
    sim = Simulator(seed=1)
    chip = Chip(sim, ChipConfig(width=5, height=5))
    config = scenario.protocol_config(protocol, failover_timeout=8_000.0)
    group = build_group(chip, GroupConfig(protocol=protocol, protocol_config=config))
    backup = group.replicas[group.members[1]]
    if protocol == "passive":
        timer = backup._detector
    else:
        client = ClientNode("c0", ClientConfig(think_time=100))
        group.attach_client(client)
        client.start()
        sim.run(until=2_000)
        timer = backup._progress_timer
    assert timer is not None and timer.duration == 8_000.0

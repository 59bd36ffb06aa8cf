"""C3 — statistical fault injection: outcome CIs, MTTF bounds, early stop.

Anecdotal injections (one crash here, one bitflip there) cannot support
dependability claims; the DAVOS tradition samples the fault space and
reports outcome *proportions with confidence intervals*.  This bench
runs :mod:`repro.faultspace` twice over the same strata and budget:

* **sequential** — rounds per stratum, each stratum closing once its
  masked/SDC Wilson interval is narrower than the target half-width;
* **fixed-size** — the classical estimator: every stratum spends the
  full budget.

Shape assertions:

* accounting — every trial injects exactly one fault and lands in
  exactly one outcome bucket, so ``injected == classified == trials``
  in both arms;
* zero SDC — benign faults (crashes, link failures, wear-out, register
  bitflips under ECC) must never make replicas commit divergent state;
* sequential < fixed — early stopping measurably cuts trials at the
  same per-stratum budget and target width;
* exactness — re-running the sequential campaign fresh with the same
  campaign seed reproduces ``summary.json`` byte-for-byte.

Full mode drives >= 10^3 injections (6 strata x 200 budget in the
fixed-size arm); ``--smoke`` is the CI-sized version of the same story.

Standalone (CI smoke): ``python benchmarks/bench_c3_faultspace.py --smoke``
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import run_once

from repro.faultspace import FaultspaceConfig, SequentialCampaign, render_report

SMOKE_STRATA = ["node:crash", "link:link_fail", "tile:degrade"]
SMOKE_BUDGET, SMOKE_MIN, SMOKE_ROUND, SMOKE_HW = 6, 2, 2, 0.35
FULL_BUDGET, FULL_MIN, FULL_ROUND, FULL_HW = 200, 16, 8, 0.08
DURATION, WARMUP = 45_000.0, 40_000.0


def _config(smoke, early_stop, name):
    return FaultspaceConfig(
        name=name,
        strata=SMOKE_STRATA if smoke else None,
        include_uniform=not smoke,
        max_per_stratum=SMOKE_BUDGET if smoke else FULL_BUDGET,
        min_per_stratum=SMOKE_MIN if smoke else FULL_MIN,
        round_size=SMOKE_ROUND if smoke else FULL_ROUND,
        target_half_width=SMOKE_HW if smoke else FULL_HW,
        early_stop=early_stop,
        duration=DURATION,
        warmup=WARMUP,
    )


def _run(config, root):
    campaign = SequentialCampaign(config, root, fresh=True)
    summary = campaign.run()
    return summary, campaign.store.summary_path.read_bytes()


def experiment(smoke=False):
    with tempfile.TemporaryDirectory() as root:
        sequential, seq_bytes = _run(
            _config(smoke, early_stop=True, name="c3-seq"),
            os.path.join(root, "seq"),
        )
        fixed, _ = _run(
            _config(smoke, early_stop=False, name="c3-fixed"),
            os.path.join(root, "fixed"),
        )
        _, repeat_bytes = _run(
            _config(smoke, early_stop=True, name="c3-seq"),
            os.path.join(root, "seq-repeat"),
        )

    print(render_report(sequential))
    seq_trials = sequential["early_stopping"]["trials_executed"]
    fixed_trials = fixed["early_stopping"]["trials_executed"]
    print(
        f"sequential {seq_trials} trials vs fixed-size {fixed_trials} "
        f"(saved {1.0 - seq_trials / fixed_trials:.1%})"
    )
    return {
        "smoke": smoke,
        "sequential": sequential,
        "fixed": fixed,
        "identical": seq_bytes == repeat_bytes,
    }


def check(results):
    """The assertions shared by the pytest and standalone entrypoints."""
    for arm in ("sequential", "fixed"):
        summary = results[arm]
        # Accounting invariant: one injection, one bucket, per trial.
        assert (
            summary["injected_total"]
            == summary["classified_total"]
            == summary["n_trials"]
            > 0
        ), f"{arm}: injected/classified/trials disagree"
        # Benign faults must never produce silent data corruption.
        assert summary["overall"]["outcomes"]["sdc"]["count"] == 0, (
            f"{arm}: observed SDC under benign faults"
        )
    if not results["smoke"]:
        assert results["fixed"]["n_trials"] >= 1000, "full mode must inject >= 10^3"
    seq_trials = results["sequential"]["early_stopping"]["trials_executed"]
    fixed_trials = results["fixed"]["early_stopping"]["trials_executed"]
    # The whole point of sequential analysis: fewer trials, same target.
    assert seq_trials < fixed_trials, (
        f"early stopping saved nothing ({seq_trials} vs {fixed_trials})"
    )
    # Exactness: equal seeds reproduce summary.json byte-for-byte.
    assert results["identical"]


def test_c3_faultspace(benchmark):
    check(run_once(benchmark, lambda: experiment(smoke=True)))


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = experiment(smoke=smoke)
    check(outcome)
    seq = outcome["sequential"]["early_stopping"]
    print(
        "C3 "
        + ("smoke " if smoke else "")
        + f"OK: {seq['trials_executed']} sequential vs "
        + f"{outcome['fixed']['early_stopping']['trials_executed']} fixed trials, "
        + f"availability {outcome['sequential']['dependability']['availability']}, "
        + f"byte-identical={outcome['identical']}"
    )

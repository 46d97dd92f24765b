"""Chaos acceptance tests: seeded fault plans through ``factor()``.

The ISSUE's acceptance criteria for the fault-injection tentpole:

* a seeded :class:`FaultPlan` replayed twice over the same ``factor()``
  call yields identical fault logs and identical outcomes;
* a delay-only plan leaves the numerics bit-identical to a clean run
  while strictly increasing the predicted wait time.
"""

import numpy as np
import pytest

from repro.algorithms import factor
from repro.faults import FaultPlan, FaultRule, canned_plan
from repro.smpi import RankFailure

N = 48
GRID = (2, 2, 2)


def matrix(n=N, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


def delay_plan(seed=0):
    return FaultPlan(
        rules=(
            FaultRule(action="delay", probability=0.3, delay_s=1e-4),
        ),
        seed=seed,
        name="test-delay",
    )


class TestReplayDeterminism:
    def test_same_plan_same_log_same_factors(self):
        a = matrix()
        runs = [
            factor(
                "conflux", a, grid=GRID, v=4,
                machine="daint-xc50", faults=delay_plan(seed=3),
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.volume.faults == second.volume.faults
        assert first.volume.faults["n_injected"] > 0
        np.testing.assert_array_equal(first.lower, second.lower)
        np.testing.assert_array_equal(first.upper, second.upper)
        np.testing.assert_array_equal(first.perm, second.perm)
        # predicted timing is part of the deterministic surface too
        assert (
            first.volume.timing.rank_seconds
            == second.volume.timing.rank_seconds
        )

    def test_fault_seed_changes_the_log(self):
        a = matrix()
        res = {
            seed: factor(
                "conflux", a, grid=GRID, v=4,
                faults=delay_plan(), fault_seed=seed,
            )
            for seed in (1, 2)
        }
        logs = {
            seed: r.volume.faults["events"]
            for seed, r in res.items()
        }
        assert logs[1] != logs[2]
        # but the numerics agree — delays never touch payloads
        np.testing.assert_array_equal(res[1].lower, res[2].lower)


class TestDelayOnlySemantics:
    def test_bit_identical_to_clean_with_larger_wait(self):
        a = matrix()
        clean = factor(
            "conflux", a, grid=GRID, v=4, machine="daint-xc50"
        )
        chaotic = factor(
            "conflux", a, grid=GRID, v=4, machine="daint-xc50",
            faults=delay_plan(),
        )
        np.testing.assert_array_equal(clean.lower, chaotic.lower)
        np.testing.assert_array_equal(clean.upper, chaotic.upper)
        np.testing.assert_array_equal(clean.perm, chaotic.perm)
        assert chaotic.residual == clean.residual
        assert sum(chaotic.volume.timing.wait_seconds) > sum(
            clean.volume.timing.wait_seconds
        )
        assert (
            chaotic.volume.timing.makespan
            > clean.volume.timing.makespan
        )
        # the communication ledger is unchanged: same messages, same
        # bytes, just later
        assert chaotic.volume.sent_bytes == clean.volume.sent_bytes
        assert chaotic.volume.messages == clean.volume.messages


class TestDestructiveClasses:
    def test_targeted_drop_is_detected(self):
        plan = FaultPlan(
            rules=(FaultRule(action="drop", after=5, max_fires=1),),
            seed=0,
        )
        with pytest.raises(RankFailure):
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                faults=plan, timeout_s=1.0,
            )

    def test_crash_plan_is_detected(self):
        from repro.faults import RankCrashed

        plan = canned_plan("crash", seed=0)
        with pytest.raises(RankFailure) as ei:
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                faults=plan, timeout_s=1.0,
            )
        # the crashed rank carries the typed error; its peers show up
        # as watchdog deadlocks waiting on the corpse
        kinds = {type(exc) for _, exc in ei.value.failures}
        assert RankCrashed in kinds


class TestChaosClassification:
    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_fault_that_never_fired_is_not_recovered(self, fault_seed):
        # the canned crash rule targets a step caqr25d never reaches at
        # this shape: the run completes with an empty fault log
        from repro.harness.specs import chaos_task

        row = chaos_task(
            impl="caqr25d", n=48, p=8, fault_class="crash",
            fault_seed=fault_seed,
        )
        assert row["n_injected"] == 0
        assert row["outcome"] == "not-injected"

    def test_fired_and_absorbed_fault_is_recovered(self):
        from repro.harness.specs import chaos_task

        row = chaos_task(
            impl="conflux", n=48, p=8, fault_class="delay", v=4,
        )
        assert row["n_injected"] > 0
        assert row["outcome"] == "recovered"


class TestFactorArgValidation:
    def test_fault_seed_requires_faults(self):
        with pytest.raises(ValueError, match="without faults"):
            factor("conflux", matrix(), grid=GRID, v=4, fault_seed=3)

    def test_timeout_spellings_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            factor(
                "conflux", matrix(), grid=GRID, v=4,
                timeout_s=1.0, timeout=1.0,
            )

    def test_plan_dict_and_seed_override(self):
        res = factor(
            "conflux", matrix(), grid=GRID, v=4,
            faults=delay_plan(seed=0).to_dict(), fault_seed=7,
        )
        assert res.volume.faults["plan"]["seed"] == 7

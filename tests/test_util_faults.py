"""Tests for the deterministic fault-injection plan."""

import numpy as np
import pytest

from repro.util.faults import (
    CHAOS_KINDS,
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_KINDS,
    FAULT_NAN,
    FAULT_NET_CUT,
    FAULT_SERVER_KILL,
    FAULT_TRUNCATE,
    FAULT_WORKER_KILL,
    SCOPE_ANY,
    SCOPE_POOL,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_scope,
    poison_leakage,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("segfault")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scope"):
            FaultSpec(FAULT_EXCEPTION, scope="gpu")

    def test_invalid_attempts_and_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FAULT_EXCEPTION, attempts=0)
        with pytest.raises(ValueError):
            FaultSpec(FAULT_EXCEPTION, rate=1.5)

    def test_scope_defaults_to_any(self):
        assert FaultSpec(FAULT_EXCEPTION).scope == SCOPE_ANY

    def test_site_wildcard(self):
        spec = FaultSpec(FAULT_EXCEPTION)
        assert spec.matches_site("shard[0:100]")
        targeted = FaultSpec(FAULT_EXCEPTION, site="shard[0:100]")
        assert targeted.matches_site("shard[0:100]")
        assert not targeted.matches_site("shard[100:200]")


class TestMatching:
    def test_attempt_budget(self):
        plan = FaultPlan([FaultSpec(FAULT_EXCEPTION, attempts=2)])
        assert plan.match(FAULT_EXCEPTION, "s", 0, "serial") is not None
        assert plan.match(FAULT_EXCEPTION, "s", 1, "serial") is not None
        assert plan.match(FAULT_EXCEPTION, "s", 2, "serial") is None

    def test_pool_scope_skips_serial(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, scope=SCOPE_POOL, attempts=99)]
        )
        assert plan.match(FAULT_EXCEPTION, "s", 0, "serial") is None
        assert plan.match(FAULT_EXCEPTION, "s", 0, "thread") is not None

    def test_rate_coin_is_deterministic(self):
        plan_a = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, rate=0.5, attempts=10**6)], seed=3
        )
        plan_b = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, rate=0.5, attempts=10**6)], seed=3
        )
        outcomes_a = [
            plan_a.match(FAULT_EXCEPTION, "s", k, "serial") is not None
            for k in range(64)
        ]
        outcomes_b = [
            plan_b.match(FAULT_EXCEPTION, "s", k, "serial") is not None
            for k in range(64)
        ]
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)

    def test_plan_survives_pickle(self):
        import pickle

        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site="shard[0:4]")], seed=9
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.match(FAULT_EXCEPTION, "shard[0:4]", 0, "serial")


class TestDelivery:
    def test_exception_fault_raises(self):
        plan = FaultPlan([FaultSpec(FAULT_EXCEPTION, site="s")])
        with pytest.raises(InjectedFault) as excinfo:
            plan.fire("s", 0, "serial")
        assert excinfo.value.site == "s"
        assert excinfo.value.attempt == 0
        # Other sites and later attempts pass through untouched.
        plan.fire("other", 0, "serial")
        plan.fire("s", 1, "serial")

    def test_hang_fault_sleeps(self):
        import time

        plan = FaultPlan(
            [FaultSpec(FAULT_HANG, site="s", hang_seconds=0.05)]
        )
        begun = time.monotonic()
        plan.fire("s", 0, "serial")
        assert time.monotonic() - begun >= 0.05

    def test_truncate_drops_last_element(self):
        plan = FaultPlan([FaultSpec(FAULT_TRUNCATE, site="s")])
        assert plan.corrupt_payload("s", 0, "serial", [1, 2, 3]) == [1, 2]
        out = plan.corrupt_payload("s", 0, "serial", np.arange(4))
        assert np.array_equal(out, np.arange(3))
        # Non-matching identity: payload unchanged.
        assert plan.corrupt_payload("s", 1, "serial", [1, 2]) == [1, 2]

    def test_poison_is_deterministic_and_leaves_original(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_NAN, site="s", fraction=0.25)], seed=5
        )
        values = np.arange(100, dtype=np.float64)
        once = plan.poison("s", 0, "serial", values)
        twice = plan.poison("s", 0, "serial", values)
        assert np.array_equal(
            np.isfinite(once), np.isfinite(twice)
        )
        assert np.isfinite(values).all(), "input must not be mutated"
        bad = ~np.isfinite(once)
        assert bad.sum() == 25
        assert np.isinf(once[bad]).any() and np.isnan(once[bad]).any()


class TestFaultScope:
    def test_poison_leakage_is_identity_without_context(self):
        values = np.arange(10, dtype=np.float64)
        assert poison_leakage(values) is values

    def test_poison_leakage_reads_active_context(self):
        plan = FaultPlan([FaultSpec(FAULT_NAN, site="s")], seed=1)
        values = np.arange(10, dtype=np.float64)
        with fault_scope(plan, "s", 0, "serial"):
            poisoned = poison_leakage(values)
        assert not np.isfinite(poisoned).all()
        # Context is popped on exit.
        assert poison_leakage(values) is values

    def test_scope_nesting_restores_previous(self):
        plan = FaultPlan([FaultSpec(FAULT_NAN, site="outer")], seed=1)
        values = np.arange(8, dtype=np.float64)
        with fault_scope(plan, "outer", 0, "serial"):
            with fault_scope(None, "inner", 0, "serial"):
                assert poison_leakage(values) is values
            assert not np.isfinite(poison_leakage(values)).all()


def test_fault_kinds_complete():
    assert set(FAULT_KINDS) == {
        FAULT_EXCEPTION,
        FAULT_HANG,
        FAULT_NAN,
        FAULT_TRUNCATE,
        FAULT_SERVER_KILL,
        FAULT_WORKER_KILL,
        FAULT_NET_CUT,
    }
    assert set(CHAOS_KINDS) == {
        FAULT_SERVER_KILL,
        FAULT_WORKER_KILL,
        FAULT_NET_CUT,
    }


class TestChaosKinds:
    def test_chaos_kinds_are_never_fired_inline(self):
        """Chaos kinds are harness-fired at barriers: ``fire`` must
        treat a matching spec as a no-op, never raise or crash."""
        plan = FaultPlan(
            [
                FaultSpec(kind, site="barrier:x", scope=SCOPE_ANY)
                for kind in CHAOS_KINDS
            ],
            seed=1,
        )
        plan.fire("barrier:x", 0, "chaos")  # no-op, not an injection

    def test_wants_matches_kind_and_site(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_SERVER_KILL, site="barrier:lease_granted")],
            seed=1,
        )
        assert plan.wants(FAULT_SERVER_KILL, "barrier:lease_granted")
        assert not plan.wants(FAULT_SERVER_KILL, "barrier:other")
        assert not plan.wants(FAULT_WORKER_KILL, "barrier:lease_granted")
        assert not FaultPlan([]).wants(FAULT_NET_CUT, "anywhere")

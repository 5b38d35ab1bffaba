"""Write-path chaos tests: torn writes during WAL-journaled bulk loads
and inserts, redo recovery, the simulated-crash rollback leg, and the
pinned degraded -> clean replica-repair seed.

These back the CI chaos job's ``python -m tools.chaos --sweep write`` and
``--replicas 2`` steps (run with ``REPRO_CHECKS=1`` on both kernel
backends).  The write sweep's schedule already raises
``ChaosViolation`` on any divergence from the fault-free oracle, so
reaching an outcome at all *is* the contract check.
"""

import pytest

from repro import kernels
from tools.chaos import SWEEPS, run_schedule

BACKENDS = kernels.available_backends()


class TestWriteSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SWEEPS["write"].seeds)
    def test_schedule_recovers_bit_identically(self, seed, backend, graded):
        """Every pinned write seed must tear at least one page and end
        bit-identical to a fault-free load (verified inside the run)."""
        (outcome,) = graded("write", seed, backend)
        assert outcome.healed > 0  # redo did real work
        assert any(kind == "torn" for _, kind, _, _ in outcome.fault_log)

    def test_schedule_replays_exactly(self):
        # includes the full fault_log
        assert run_schedule("write", 7) == run_schedule("write", 7)

    def test_outcomes_identical_across_backends(self, same_on_every_backend):
        same_on_every_backend("write")


class TestReplicaRepairSeed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_degraded_seed_turns_clean_with_replicas(self, backend, graded):
        """The acceptance pin: seed 17 — "degraded" on the plain sweep —
        classifies "clean" on a replicated world, because the corrupt
        page is repaired in place and the planner keeps the full
        design."""
        (plain,) = graded("read", 17, backend)
        assert plain.status == "degraded"
        (repaired,) = run_schedule("read", 17, backend=backend, replicas=2)
        assert repaired.status == "clean"
        assert repaired.repaired >= 1
        assert repaired.degradations == ()
        assert repaired.rows == plain.rows

"""Join-chaos sweep tests: shard copies killed/corrupted mid-join.

The CI join job's fault-tolerance payload: every pinned seed must land
on its graded outcome (``PINNED`` in ``conftest.py``) — the
co-partitioned join's concatenated output bit-identical to the serial
merge join across mid-join failover and cross-copy repair, a typed
:class:`~repro.shard.ShardFailedError` or a flagged partial when no
replica is left — and :mod:`tools.chaos` raises
``ChaosViolation`` on any silent wrong answer, so reaching an outcome
at all *is* the contract check.
"""

import pytest

from repro import kernels
from tools.chaos import SWEEPS, join_kind, run_schedule, shard_scenario

BACKENDS = kernels.available_backends()


class TestScenarioGrid:
    def test_pinned_seeds_span_the_grid(self):
        seeds = SWEEPS["join"].seeds
        scenarios = {shard_scenario(seed) for seed in seeds}
        assert ("failover", "kill") in scenarios
        assert ("failover", "corrupt") in scenarios
        assert ("failover", "slow") in scenarios
        assert ("lone", "kill") in scenarios
        assert any(scenario == "clean" for scenario, _ in scenarios)
        # both merge loops exercised
        assert {join_kind(seed) for seed in seeds} == {"inner", "semi"}

    def test_grid_is_deterministic(self):
        assert shard_scenario(13) == ("failover", "corrupt")
        assert join_kind(13) == "semi"
        assert join_kind(13) == join_kind(13)


class TestJoinSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SWEEPS["join"].seeds)
    def test_schedule_honours_contract(self, seed, backend, graded):
        graded("join", seed, backend)

    def test_slow_schedule_actually_injected(self, graded):
        (outcome,) = graded("join", 7)
        assert outcome.faults_injected > 0  # latency fired, join survived

    def test_repair_schedule_heals_from_the_peer(self, graded):
        (outcome,) = graded("join", 13)
        assert outcome.repaired > 0
        assert outcome.lifted > 0

    def test_partial_outcome_flags_the_lost_rows(self, graded):
        (outcome,) = graded("join", 29)
        assert outcome.rows > 0  # the surviving legs still produced output

    def test_schedule_replays_exactly(self):
        assert run_schedule("join", 13) == run_schedule("join", 13)

    def test_outcomes_identical_across_backends(self, same_on_every_backend):
        same_on_every_backend("join")

"""Shard-chaos sweep tests: kill/corrupt/slow one shard copy mid-scan.

The CI shard job's payload: every pinned seed must land on its graded
outcome (``PINNED`` in ``conftest.py``) — bit-identical rows across
failover and cross-copy repair, typed
:class:`~repro.shard.ShardFailedError` or a flagged partial when no
replica is left — and :mod:`tools.chaos` raises ``ChaosViolation``
on any silent wrong answer, so reaching an outcome at all *is* the
contract check.
"""

import pytest

from repro import kernels
from tools.chaos import SWEEPS, run_schedule, shard_scenario

BACKENDS = kernels.available_backends()


class TestScenarioGrid:
    def test_pinned_seeds_span_the_grid(self):
        cells = {shard_scenario(seed) for seed in SWEEPS["shard"].seeds}
        assert ("failover", "kill") in cells
        assert ("failover", "corrupt") in cells
        assert ("failover", "slow") in cells
        assert ("lone", "kill") in cells
        assert any(scenario == "clean" for scenario, _ in cells)

    def test_grid_is_deterministic(self):
        assert shard_scenario(13) == ("failover", "corrupt")
        assert shard_scenario(13) == shard_scenario(13)


class TestShardSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SWEEPS["shard"].seeds)
    def test_schedule_honours_contract(self, seed, backend, graded):
        graded("shard", seed, backend)

    def test_slow_schedule_actually_injected(self, graded):
        (outcome,) = graded("shard", 7)
        assert outcome.faults_injected > 0  # latency fired, scan survived

    def test_repair_schedule_heals_from_the_peer(self, graded):
        (outcome,) = graded("shard", 13)
        assert outcome.repaired > 0
        assert outcome.lifted > 0

    def test_schedule_replays_exactly(self):
        assert run_schedule("shard", 13) == run_schedule("shard", 13)

    def test_outcomes_identical_across_backends(self, same_on_every_backend):
        same_on_every_backend("shard")

"""Shared grading for the chaos sweep tests.

``PINNED`` is the one table of graded outcomes for every sweep in the
:data:`tools.chaos.SWEEPS` registry, keyed by ``(sweep, seed)``.  Every
schedule already raises ``ChaosViolation`` on a silent wrong answer, so
reaching an outcome at all *is* the contract check; the table pins
*which* outcome each seed must reproduce on every kernel backend.  The
fixtures below hold schedules to it.
"""

import dataclasses

import pytest

from repro import kernels
from tools.chaos import SWEEPS, ChaosOutcome, run_schedule

PINNED: dict[tuple[str, int], str] = {
    ("read", 17): "degraded",  # corrupt heap page -> Tetris on the UB-Tree
    ("read", 23): "clean",
    ("read", 33): "failed",  # every instance lost -> typed PlanExhaustedError
    ("prefetch", 3): "degraded",  # both worlds, identically
    ("prefetch", 12): "degraded",
    ("prefetch", 29): "degraded",
    ("write", 7): "recovered",  # every pinned write seed tears a page
    ("write", 19): "recovered",
    ("write", 41): "recovered",
    ("shard", 2): "failed",  # lone copy killed, no allow_partial -> typed error
    ("shard", 6): "clean",  # nothing armed
    ("shard", 7): "clean",  # latency only; must still finish bit-identical
    ("shard", 10): "degraded",  # kill mid-scan -> failover to the replica copy
    ("shard", 13): "degraded",  # corruption -> quarantine -> cross-copy repair
    ("shard", 29): "partial",  # lone copy killed, odd seed opts into allow_partial
    ("join", 2): "failed",  # the shard grid, with the fault on a probe copy
    ("join", 6): "clean",
    ("join", 7): "clean",
    ("join", 10): "degraded",
    ("join", 13): "degraded",
    ("join", 29): "partial",
    ("txn", 6): "recovered",  # each seed crashes mid-protocol and recovers
    ("txn", 23): "recovered",
    ("txn", 85): "recovered",
}


def grade(
    sweep: str, seed: int, backend: "str | None" = None
) -> tuple[ChaosOutcome, ...]:
    """Run one pinned schedule and hold every graded world to its row."""
    outcomes = run_schedule(sweep, seed, backend=backend)
    assert len(outcomes) == len(SWEEPS[sweep].labels)
    for outcome in outcomes:
        assert isinstance(outcome, ChaosOutcome)
        assert outcome.status == PINNED[sweep, seed]
        if outcome.status == "failed":
            assert outcome.error  # typed failure is always explained
            assert outcome.degradations
        if outcome.status in ("degraded", "partial"):
            assert outcome.degradations
        if outcome.status == "recovered":
            assert outcome.faults_injected > 0, "seed stopped injecting"
    return outcomes


def assert_same_on_every_backend(sweep: str) -> None:
    """Each pinned seed's outcomes agree field for field across backends."""
    backends = kernels.available_backends()
    if len(backends) < 2:
        pytest.skip("only one kernel backend available")
    for seed in SWEEPS[sweep].seeds:
        runs = [
            [
                dataclasses.replace(outcome, backend="")
                for outcome in run_schedule(sweep, seed, backend=backend)
            ]
            for backend in backends
        ]
        assert all(run == runs[0] for run in runs), (sweep, seed)


@pytest.fixture
def pinned():
    """The ``PINNED`` table."""
    return PINNED


@pytest.fixture
def graded():
    """:func:`grade`: run a pinned schedule and check it against ``PINNED``."""
    return grade


@pytest.fixture
def same_on_every_backend():
    """:func:`assert_same_on_every_backend` for one sweep."""
    return assert_same_on_every_backend

"""CLI driver: ``python -m tools.chaos [--sweep NAME] [--seeds ...] [--backend ...]``.

Runs one registered sweep (:data:`tools.chaos.SWEEPS`: ``read`` by
default, or ``prefetch``, ``write``, ``shard``, ``join``, ``txn``) over
its pinned seeds or ``--seeds``.  Prints one line per graded outcome
with its degradation trail, then a summary line, and exits non-zero
when any schedule breaks the correct-or-typed-error contract (a
:class:`~tools.chaos.ChaosViolation` propagates with a traceback — that
is a bug in the engine, not in the schedule).

``--replicas K`` gives the read sweep's world k-way page replicas so
checksum failures repair in place; ``--replay SEED`` re-runs a single
schedule and prints the replayable fault log and degradation/repair
trail of each graded world as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict

from repro import kernels

from . import SWEEPS, ChaosOutcome, run_schedule, run_suite


def _replay_json(outcome: ChaosOutcome, mode: str) -> str:
    """One schedule's outcome as pretty JSON, fault log expanded."""
    payload = asdict(outcome)
    payload["mode"] = mode
    payload["degradations"] = list(outcome.degradations)
    payload["fault_log"] = [
        {"op": op, "kind": kind, "page_id": page_id, "access": access}
        for op, kind, page_id, access in outcome.fault_log
    ]
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos",
        description="Seeded fault-schedule sweep over the Tetris engine.",
    )
    parser.add_argument(
        "--sweep",
        choices=list(SWEEPS),
        default="read",
        help="which fault sweep to run (default: read)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="fault-plan seeds to sweep (default: the sweep's pinned seeds)",
    )
    parser.add_argument(
        "--backend",
        choices=[*kernels.available_backends(), "all"],
        default="all",
        help="kernel backend to sweep (default: every available backend)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="K",
        help="k-way page replicas under the fault layer (read sweep only)",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="SEED",
        help="re-run one schedule and print its fault/repair trail as JSON",
    )
    options = parser.parse_args(argv)
    sweep = SWEEPS[options.sweep]
    backends = None if options.backend == "all" else [options.backend]

    if options.replay is not None:
        outcomes = run_schedule(
            sweep.name,
            options.replay,
            backend=backends[0] if backends else None,
            replicas=options.replicas,
        )
        for (_, mode), outcome in zip(sweep.labels, outcomes):
            print(_replay_json(outcome, mode))
        return 0

    runs = run_suite(
        sweep.name, options.seeds, backends=backends, replicas=options.replicas
    )
    for outcomes in runs:
        for (label, _), outcome in zip(sweep.labels, outcomes):
            prefix = f"{label:<8s} " if label else ""
            print(prefix + outcome.describe())
            for event in outcome.degradations:
                print(f"    degradation: {event}")
    # a multi-world schedule (prefetch) is graded by its last world
    statuses = Counter(outcomes[-1].status for outcomes in runs)
    print(
        f"chaos: {len(runs)} {sweep.noun} — "
        + ", ".join(f"{count} {status}" for status, count in sorted(statuses.items()))
        + f"; {sweep.verdict}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

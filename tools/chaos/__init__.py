"""``chaos``: seeded fault-schedule sweeps over the full query stack.

Every sweep follows one protocol: build a world, arm a seeded fault
schedule, run one route through it, and grade the result against a
fault-free oracle.  The engine is held to its resilience contract:

* a run that completes must return *exactly* the correct answer —
  the right multiset of rows, in an order the
  :class:`~repro.invariants.StreamChecker` accepts (monotone in the
  sort key, every row inside the query space), and bit-identical to the
  fault-free run when no degradation happened;
* a run that cannot complete must fail with a typed
  :class:`~repro.storage.errors.StorageError` (usually
  :class:`~repro.planner.PlanExhaustedError` carrying the degradation
  trail) or, on the sharded routes, end in an explicitly flagged partial
  result whose ``failed_ranges`` account for every missing row;
* the same seed must replay the same outcome, fault-for-fault.

Anything else — a wrong row, a truncated stream, an untyped crash — is a
:class:`ChaosViolation`: the silent-garbage class of bug this harness
exists to catch.

Six sweeps are registered in :data:`SWEEPS`:

* ``read`` — a Q6-style sort+restriction query through
  :func:`repro.planner.execute_sorted_query` on a multi-instance design
  (heap + two IOTs + UB-Tree over the same rows) under
  :func:`chaos_plan`.  ``replicas=k`` rebuilds the faulty world on a
  k-way :class:`~repro.storage.replica.ReplicatedDisk`, so checksum
  failures repair in place instead of degrading the plan (seed 17's
  pinned "degraded" outcome turns "clean");
* ``prefetch`` — one scripted corrupt fault replayed on a demand-only
  world and on a world with the multi-queue scheduler and sweep-ahead
  prefetcher armed.  The two runs must degrade *identically*: same
  status, same structural degradation trail, bit-identical rows, same
  fault log;
* ``write`` — torn writes during WAL-journaled ``bulk_load``/``insert``
  batches, verified bit-identical to a fault-free load after redo
  recovery, plus a simulated-crash leg that must roll back cleanly;
* ``shard`` — the read sweep's query against a range-sharded
  :class:`~repro.shard.ShardedDatabase` while one shard copy is killed,
  corrupted or slowed mid-scan (:func:`shard_scenario`), graded against
  the unsharded fault-free stream;
* ``join`` — the same grid applied to a co-partitioned merge join
  (:class:`~repro.shard.CoPartitionedJoin`, kind from :func:`join_kind`)
  with the fault on a probe-side copy, graded against the serial merge
  join of the two serial sorted streams;
* ``txn`` — 2PC atomic writes under torn/transient faults on every log
  device, then a seeded crash mid-protocol followed by decision-log
  recovery.

Usage: ``python -m tools.chaos --sweep shard --seeds 2 13`` (default
sweep ``read`` over its pinned seeds; add ``--backend python`` to force
a kernel backend).  ``--replay SEED`` re-runs one schedule and prints
its full fault log and degradation/repair trail as JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro import kernels
from repro.costmodel import CostParameters
from repro.invariants import StreamChecker
from repro.planner import (
    PhysicalDesign,
    PlanExhaustedError,
    QueryResult,
    execute_sorted_query,
)
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import MergeJoin, MergeSemiJoin
from repro.shard import CoPartitionedJoin, ShardedDatabase, ShardFailedError
from repro.storage import (
    FaultPlan,
    FaultyDisk,
    SimulatedCrashError,
    StorageError,
)
from repro.storage.faults import CORRUPT
from repro.txn import TransactionCoordinator

__all__ = [
    "QUERY",
    "SHARD_DIMS",
    "SWEEPS",
    "ChaosOutcome",
    "ChaosViolation",
    "Sweep",
    "build_txn_world",
    "build_world",
    "build_write_world",
    "chaos_data",
    "chaos_plan",
    "chaos_schema",
    "join_kind",
    "run_schedule",
    "run_suite",
    "shard_scenario",
    "sharded_fingerprint",
    "txn_plan",
    "write_plan",
]

#: the harness's fixed Q6-style query: restriction on one UB dimension,
#: sort on the other
QUERY: dict[str, Any] = {
    "restrictions": {"a1": (100, 900)},
    "sort_attr": "a2",
}

#: cost parameters of every planner run in the harness
_PARAMS = CostParameters(memory_pages=8)

#: UB dimensions of the sharded worlds (range-sharded on ``a1``)
SHARD_DIMS: tuple[str, str] = ("a1", "a2")


class ChaosViolation(AssertionError):
    """The engine broke the correct-or-typed-error contract."""


@dataclass(frozen=True)
class ChaosOutcome:
    """What one fault schedule did to one query (or one write workload)."""

    seed: int
    backend: str
    status: str  #: "clean" | "degraded" | "failed" | "recovered" | "partial"
    rows: int
    faults_injected: int
    retries: int
    quarantined: int
    degradations: tuple[str, ...] = ()
    error: str | None = None
    #: pages repaired from replicas during the run
    repaired: int = 0
    #: quarantine entries lifted after a successful repair
    lifted: int = 0
    #: pages healed by WAL redo (write sweep) or in-doubt transactions
    #: resolved by decision-log recovery (txn sweep)
    healed: int = 0
    #: replayable injection log (op, kind, page_id, access)
    fault_log: tuple[tuple[str, str, int, int], ...] = field(repr=False, default=())

    def describe(self) -> str:
        base = (
            f"seed={self.seed:<4d} backend={self.backend:<6s} "
            f"status={self.status:<9s} rows={self.rows:<5d} "
            f"faults={self.faults_injected:<3d} retries={self.retries:<3d} "
            f"quarantined={self.quarantined}"
        )
        if self.repaired or self.lifted:
            base += f"  repaired={self.repaired} lifted={self.lifted}"
        if self.healed:
            base += f"  healed={self.healed}"
        if self.error:
            base += f"  error={self.error.splitlines()[0][:80]}"
        return base


def _outcome(
    seed: int,
    status: str,
    source: "FaultyDisk | dict[str, int]",
    *,
    rows: int = 0,
    events: Iterable[Any] = (),
    error: str | None = None,
    healed: int = 0,
) -> ChaosOutcome:
    """Assemble one graded outcome in the active kernel backend.

    ``source`` supplies the fault counters: a faulty disk (its
    :class:`~repro.storage.stats.FaultStats` plus its replayable fault
    log) or a :meth:`~repro.shard.ShardedDatabase.fault_totals` dict,
    whose missing keys count as zero.
    """
    if isinstance(source, dict):
        counts, fault_log = source, ()
    else:
        faults = source.stats.faults
        counts = {
            "injected": faults.total_injected,
            "retries": faults.retries,
            "quarantined": faults.quarantined_pages,
            "repaired": faults.repaired_pages,
            "lifted": faults.quarantine_lifted,
        }
        fault_log = tuple(source.fault_log)
    return ChaosOutcome(
        seed=seed,
        backend=kernels.get_backend().name,
        status=status,
        rows=rows,
        faults_injected=counts.get("injected", 0),
        retries=counts.get("retries", 0),
        quarantined=counts.get("quarantined", 0),
        degradations=tuple(event.describe() for event in events),
        error=error,
        repaired=counts.get("repaired", 0),
        lifted=counts.get("lifted", 0),
        healed=healed,
        fault_log=fault_log,
    )


def chaos_plan(seed: int) -> FaultPlan:
    """The read sweep's fault mix for one seed.

    Rates are deliberately harsh relative to real hardware so that a
    three-seed CI sweep still exercises retries, quarantine and plan
    degradation; the seed alone decides which accesses are hit.
    """
    return FaultPlan(
        seed=seed,
        transient_rate=0.03,
        corrupt_rate=0.004,
        torn_write_rate=0.01,
        latency_rate=0.02,
        latency_seconds=0.030,
    )


def chaos_schema() -> Schema:
    """The schema every chaos (and crash-grid) world stores."""
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def chaos_data(rows: int, data_seed: int) -> list[tuple]:
    """``rows`` seeded uniform points of :func:`chaos_schema`."""
    rng = random.Random(data_seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]


def _oracle_rows(data: "list[tuple]") -> list:
    """Ground truth for :data:`QUERY` computed directly from the dataset."""
    positions = {"a1": 0, "a2": 1, "v": 2}
    survivors = []
    for row in data:
        keep = True
        for attr, (lo, hi) in QUERY["restrictions"].items():
            value = row[positions[attr]]
            if (lo is not None and value < lo) or (hi is not None and value > hi):
                keep = False
                break
        if keep:
            survivors.append(row)
    return sorted(survivors, key=lambda row: row[positions[QUERY["sort_attr"]]])


# ----------------------------------------------------------------------
# read + prefetch sweeps: one faulty single-database query run
# ----------------------------------------------------------------------
def build_world(
    fault_plan: "FaultPlan | None" = None,
    *,
    rows: int = 1200,
    data_seed: int = 0,
    buffer_pages: int = 48,
    replicas: int = 0,
    devices: int = 1,
    prefetch_depth: int = 0,
) -> tuple[Database, PhysicalDesign, list[tuple]]:
    """One logical relation in four physical instances, optionally faulty.

    Fault injection stays disarmed during loading, so the dataset is
    always pristine and a schedule's damage is a pure function of the
    query's own access pattern.  ``replicas=k`` slides a
    :class:`~repro.storage.replica.ReplicatedDisk` under the fault
    layer and captures every loaded page, so checksum failures during
    the query can be repaired in place instead of quarantined.
    ``devices``/``prefetch_depth`` arm the multi-queue
    :class:`~repro.storage.scheduler.IOScheduler` and sweep-ahead
    prefetcher (used by the prefetch identity sweep).
    """
    schema = chaos_schema()
    data = chaos_data(rows, data_seed)
    db = Database(
        buffer_pages=buffer_pages,
        fault_plan=fault_plan,
        quarantine_threshold=2,
        replicas=replicas,
        devices=devices,
        prefetch_depth=prefetch_depth,
    )
    heap = db.create_heap_table("heap", schema, 40)
    heap.load(data)
    iot_a1 = db.create_iot("iot_a1", schema, key=("a1", "a2"), page_capacity=40)
    iot_a1.load(data)
    iot_a2 = db.create_iot("iot_a2", schema, key=("a2", "a1"), page_capacity=40)
    iot_a2.load(data)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    db.buffer.flush()
    if replicas:
        db.capture_replicas()
    db.reset_measurement()
    design = PhysicalDesign(
        attributes=("a1", "a2"), heap=heap, iots={"a1": iot_a1, "a2": iot_a2}, ub=ub
    )
    return db, design, data


def _fault_free_baseline() -> tuple[PhysicalDesign, list[tuple], list[tuple]]:
    """The clean design, the exact stream it produces, and the oracle."""
    _, design, data = build_world()
    baseline = execute_sorted_query(
        design, QUERY["restrictions"], QUERY["sort_attr"], _PARAMS
    )
    oracle = _oracle_rows(data)
    if sorted(baseline.rows) != sorted(oracle) or baseline.degraded:
        raise ChaosViolation(
            "fault-free baseline is broken; chaos results are meaningless"
        )
    return design, baseline.rows, oracle


def _verify_result(
    result: QueryResult,
    baseline_rows: "list[tuple]",
    oracle: "list[tuple]",
    design: PhysicalDesign,
    seed: int,
) -> None:
    """Hold a completed run to the correctness contract."""
    rows = result.rows
    if sorted(rows) != sorted(oracle):
        missing = len(oracle) - len(rows)
        raise ChaosViolation(
            f"seed {seed}: completed query returned a wrong multiset of rows "
            f"({len(rows)} rows vs {len(oracle)} expected, delta {missing}); "
            "this is silent garbage"
        )
    if not result.degraded and rows != baseline_rows:
        raise ChaosViolation(
            f"seed {seed}: non-degraded run is not bit-identical to the "
            "fault-free run"
        )
    # order + membership via the stream contract: encode each output row
    # into the UB space and replay it through the StreamChecker
    ub = design.ub
    if ub is not None:
        space = ub.build_query_box(QUERY["restrictions"])
        checker = StreamChecker(
            (ub.dims.index(QUERY["sort_attr"]),), False, space
        )
        for row in rows:
            checker.observe(ub.point_of(row))


@dataclass
class _Run:
    """One faulty-world query run plus what the prefetch identity needs."""

    outcome: ChaosOutcome
    rows: "list[tuple] | None"  #: completed output, or None on failure
    #: (method, instance, error_type, fallback_method, fallback_instance)
    #: per degradation — error *messages* legitimately differ between the
    #: demand and prefetch paths ("read of page N" vs "prefetched read of
    #: page N"), so identity is judged on the structural trail
    trail: tuple[tuple[str, str, str, "str | None", "str | None"], ...]
    prefetch_issued: int


def _run_faulty(
    plan: FaultPlan,
    seed: int,
    baseline_rows: "list[tuple]",
    oracle: "list[tuple]",
    **world: int,
) -> _Run:
    """Arm ``plan`` on a fresh world, run the harness query, grade it."""
    db, design, _ = build_world(plan, **world)
    disk = db.disk
    if not isinstance(disk, FaultyDisk):  # pragma: no cover - build_world arms it
        raise RuntimeError("chaos world lost its FaultyDisk")
    result: QueryResult | None = None
    events: Sequence[Any] = ()
    error = None
    db.arm_faults()
    try:
        result = execute_sorted_query(
            design, QUERY["restrictions"], QUERY["sort_attr"], _PARAMS
        )
    except PlanExhaustedError as exc:
        events, error = exc.degradations, str(exc)
    except StorageError as exc:
        # typed, but the executor should have wrapped it — still within
        # contract for the caller, so report it as a failure outcome
        error = f"{type(exc).__name__}: {exc}"
    finally:
        db.disarm_faults()

    if result is None:
        outcome = _outcome(seed, "failed", disk, events=events, error=error)
    else:
        _verify_result(result, baseline_rows, oracle, design, seed)
        events = result.degradations
        outcome = _outcome(
            seed,
            "degraded" if result.degraded else "clean",
            disk,
            rows=len(result.rows),
            events=events,
        )
    trail = tuple(
        (e.method, e.instance, e.error_type, e.fallback_method, e.fallback_instance)
        for e in events
    )
    return _Run(
        outcome,
        None if result is None else result.rows,
        trail,
        disk.stats.prefetch.prefetch_issued,
    )


def _read_schedule(seed: int, replicas: int) -> tuple[ChaosOutcome]:
    """Run the harness query under :func:`chaos_plan` and verify it."""
    _, baseline, oracle = _fault_free_baseline()
    run = _run_faulty(chaos_plan(seed), seed, baseline, oracle, replicas=replicas)
    return (run.outcome,)


def _prefetch_schedule(seed: int, _replicas: int) -> tuple[ChaosOutcome, ChaosOutcome]:
    """Prove a corrupt prefetched page degrades like a demand-fetched one.

    The seed picks a victim heap page inside the sweep-ahead window (so
    the prefetch world reads it speculatively, not on demand) and
    scripts a single corrupt fault on its first armed read.  The same
    scripted plan then runs twice: once on a demand-only world and once
    with four device queues and depth-8 prefetching armed.  Because
    scripted faults key on per-page access counts — not on global rate
    draws that reordered or cancelled async reads could perturb — the
    fault fires at the exact same logical access in both worlds, and
    everything observable must match: status, the structural degradation
    trail, the fault log, and (bit for bit) the output rows.

    Returns the ``(demand, prefetch)`` outcome pair after all identity
    checks pass; any divergence raises :class:`ChaosViolation`.
    """
    design, baseline, oracle = _fault_free_baseline()
    page_ids = design.heap.heap.page_ids  # type: ignore[union-attr]
    if len(page_ids) < 2:
        raise ChaosViolation(
            "prefetch sweep needs a multi-page heap to pick a victim "
            "inside the sweep-ahead window"
        )
    # a page the scan reaches only after its first prefetch top-up:
    # positions 1..8 are submitted asynchronously while page 0 is
    # still being consumed, so the fault provably hits a *prefetched*
    # read in the scheduler world
    victim = page_ids[1 + seed % min(8, len(page_ids) - 1)]
    plan = FaultPlan(seed=seed, scripted_reads=((victim, 0, CORRUPT),))
    demand = _run_faulty(plan, seed, baseline, oracle, devices=1, prefetch_depth=0)
    armed = _run_faulty(plan, seed, baseline, oracle, devices=4, prefetch_depth=8)

    if demand.prefetch_issued != 0:
        raise ChaosViolation(
            f"seed {seed}: demand world issued prefetches; the comparison "
            "is not demand-vs-prefetch"
        )
    if armed.prefetch_issued == 0:
        raise ChaosViolation(
            f"seed {seed}: prefetch world never prefetched; the identity "
            "check is vacuous"
        )
    if demand.outcome.faults_injected < 1 or armed.outcome.faults_injected < 1:
        raise ChaosViolation(
            f"seed {seed}: scripted corrupt fault on page {victim} never "
            "fired; the victim page was not read"
        )
    if demand.outcome.fault_log != armed.outcome.fault_log:
        raise ChaosViolation(
            f"seed {seed}: fault logs diverged between demand and prefetch "
            f"worlds ({demand.outcome.fault_log} vs {armed.outcome.fault_log}); "
            "scripted faults must replay access-for-access"
        )
    if demand.outcome.status != armed.outcome.status:
        raise ChaosViolation(
            f"seed {seed}: demand world ended {demand.outcome.status!r} but "
            f"prefetch world ended {armed.outcome.status!r}"
        )
    if demand.trail != armed.trail:
        raise ChaosViolation(
            f"seed {seed}: degradation trails diverged "
            f"({demand.trail} vs {armed.trail})"
        )
    if demand.rows != armed.rows:
        raise ChaosViolation(
            f"seed {seed}: output rows are not bit-identical between the "
            "demand and prefetch worlds"
        )
    return demand.outcome, armed.outcome


# ----------------------------------------------------------------------
# write sweep: torn writes during WAL-journaled bulk loads
# ----------------------------------------------------------------------
def write_plan(seed: int) -> FaultPlan:
    """The write sweep's fault mix: torn writes only, at a harsh rate.

    Reads stay pristine so every divergence the sweep finds is the WAL's
    responsibility — a page the redo pass failed to heal, not collateral
    read damage.
    """
    return FaultPlan(seed=seed, torn_write_rate=0.25)


def build_write_world(
    fault_plan: "FaultPlan | None" = None,
    *,
    buffer_pages: int = 48,
) -> tuple[Database, PhysicalDesign]:
    """An *empty* WAL-armed world: the write sweep loads it under fire.

    Unlike :func:`build_world`, nothing is pre-loaded — the whole point
    is that ``bulk_load`` itself runs with torn-write faults armed and
    must end bit-identical to a fault-free load after recovery.
    """
    schema = chaos_schema()
    db = Database(
        buffer_pages=buffer_pages,
        fault_plan=fault_plan,
        quarantine_threshold=2,
        wal=True,
    )
    heap = db.create_heap_table("heap", schema, 40)
    iot_a1 = db.create_iot("iot_a1", schema, key=("a1", "a2"), page_capacity=40)
    iot_a2 = db.create_iot("iot_a2", schema, key=("a2", "a1"), page_capacity=40)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    design = PhysicalDesign(
        attributes=("a1", "a2"), heap=heap, iots={"a1": iot_a1, "a2": iot_a2}, ub=ub
    )
    return db, design


def _load_write_world(design: PhysicalDesign, data: "list[tuple]") -> None:
    """The write workload: all four instances bulk-loaded (WAL batches)."""
    design.heap.bulk_load(data)
    design.iots["a1"].bulk_load(data)
    design.iots["a2"].bulk_load(data)
    if design.ub is not None:
        design.ub.bulk_load(data)


def _fingerprint(db: Database) -> tuple:
    """Canonical content of every allocated data page.

    Two worlds with equal fingerprints hold bit-identical record sets,
    structural payloads and physical placement — the currency in which
    the write sweep's "replayed to committed state" claim is settled.
    """
    entries = []
    for page in sorted(db.disk.iter_pages(), key=lambda p: p.page_id):
        payload = page.payload
        if payload is None:
            psig: Any = None
        elif isinstance(payload, dict):
            psig = tuple(sorted((key, repr(value)) for key, value in payload.items()))
        elif hasattr(payload, "keys") and hasattr(payload, "children"):
            psig = ("node", tuple(payload.keys), tuple(payload.children))
        else:  # pragma: no cover - no third payload shape exists today
            psig = repr(payload)
        entries.append((page.page_id, repr(page.records), psig))
    return tuple(entries)


def _write_schedule(seed: int, _replicas: int) -> tuple[ChaosOutcome]:
    """Bulk-load a world under seeded torn writes and verify recovery.

    Three legs, all on the same seed:

    1. *redo*: load all four instances with faults armed, run
       :meth:`~repro.relational.Database.recover`, and require the disk
       to be bit-identical to a fault-free world loaded the same way —
       then require recovery to be idempotent and the harness query to
       return exactly the oracle rows.
    2. *insert*: journaled single-row UB-Tree inserts under the same
       faults, recovered and fingerprint-checked the same way.
    3. *crash*: a fresh world whose WAL kills the process mid-load
       (:class:`~repro.storage.errors.SimulatedCrashError`); the batch
       rollback must leave the disk bit-identical to its pre-load state,
       and recovery on the rolled-back log must change nothing.
    """
    data = chaos_data(600, data_seed=0)
    extras = chaos_data(24, data_seed=1)

    # fault-free oracle, loaded through the same WAL-journaled paths
    oracle_db, oracle_design = build_write_world()
    _load_write_world(oracle_design, data)
    oracle_fp = _fingerprint(oracle_db)
    oracle_rows = _oracle_rows(data)

    # leg 1: torn writes during every bulk_load, then redo recovery
    db, design = build_write_world(write_plan(seed))
    disk = db.disk
    if not isinstance(disk, FaultyDisk):  # pragma: no cover - guarded above
        raise RuntimeError("write-chaos world lost its FaultyDisk")
    db.arm_faults()
    try:
        _load_write_world(design, data)
    finally:
        db.disarm_faults()
    db.recover()
    if _fingerprint(db) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: recovered disk is not bit-identical to a "
            "fault-free load; WAL redo missed a torn page"
        )
    again = db.recover()
    if again.healed_pages or _fingerprint(db) != oracle_fp:
        raise ChaosViolation(f"seed {seed}: recovery is not idempotent")
    # the oracle world runs the same query so that its temp-sort
    # allocations keep both worlds' page allocators in lock-step —
    # leg 2's split pages must land at the same physical addresses
    execute_sorted_query(
        oracle_design, QUERY["restrictions"], QUERY["sort_attr"], _PARAMS
    )
    result = execute_sorted_query(
        design, QUERY["restrictions"], QUERY["sort_attr"], _PARAMS
    )
    if result.rows != oracle_rows or result.degraded:
        raise ChaosViolation(
            f"seed {seed}: post-recovery query diverged from the oracle"
        )

    # leg 2: journaled inserts under the same torn-write schedule.
    # Recovery runs after every insert: the WAL's contract is
    # crash-consistency at *batch* granularity, and a torn page must
    # be healed before the next batch builds on top of it (pages are
    # shared objects, so a torn write damages the live page too).
    for row in extras:
        db.arm_faults()
        try:
            design.ub.insert(row)  # type: ignore[union-attr]
        finally:
            db.disarm_faults()
        db.recover()
    for row in extras:
        oracle_design.ub.insert(row)  # type: ignore[union-attr]
    if _fingerprint(db) != _fingerprint(oracle_db):
        raise ChaosViolation(
            f"seed {seed}: recovered inserts diverged from fault-free "
            "inserts; journaled insert left a half-applied split"
        )

    # leg 3: simulated crash mid-load must roll back to pristine
    crash_db, crash_design = build_write_world()
    pre_fp = _fingerprint(crash_db)
    if crash_db.wal is None:
        raise ChaosViolation("write world built without an armed WAL")
    crash_db.wal.crash_after_appends(3 + seed % 11)
    try:
        crash_design.heap.bulk_load(data)
    except SimulatedCrashError:
        pass
    else:
        raise ChaosViolation(
            f"seed {seed}: crash hook never fired during bulk_load"
        )
    if _fingerprint(crash_db) != pre_fp:
        raise ChaosViolation(
            f"seed {seed}: crashed bulk_load left a half-built heap"
        )
    crash_db.recover()
    if _fingerprint(crash_db) != pre_fp:
        raise ChaosViolation(
            f"seed {seed}: recovery disturbed a cleanly rolled-back world"
        )

    faults = disk.stats.faults
    return (
        _outcome(
            seed,
            "recovered" if faults.torn_writes else "clean",
            disk,
            rows=len(result.rows),
            healed=faults.wal_redo_pages,
        ),
    )


# ----------------------------------------------------------------------
# shard + join sweeps: kill/corrupt/slow one shard copy mid-route
# ----------------------------------------------------------------------
#: shards per sharded chaos world; the victim shard is ``seed % SHARDS``
SHARDS = 4


def shard_scenario(seed: int) -> tuple[str, str]:
    """Deterministic ``(scenario, fault)`` grid cell for one seed.

    ``seed % 3`` picks the replication scenario — ``clean`` (nothing
    armed), ``failover`` (two copies per shard, one of them faulted) or
    ``lone`` (a single copy, so the failure ladder must bottom out in a
    typed error or a flagged partial) — and ``(seed // 3) % 3`` picks
    the fault: ``kill`` (the copy dies mid-run), ``corrupt``
    (persistent checksum damage driving quarantine) or ``slow``
    (latency injection only; the run must still finish bit-identical).
    """
    scenario = ("clean", "failover", "lone")[seed % 3]
    fault = ("kill", "corrupt", "slow")[(seed // 3) % 3]
    return scenario, fault


def join_kind(seed: int) -> str:
    """The join sweep's third grid axis on top of :func:`shard_scenario`.

    ``(seed // 9) % 2`` alternates between the inner
    :class:`~repro.relational.operators.MergeJoin` and the
    :class:`~repro.relational.operators.MergeSemiJoin` of Q4, so the
    pinned sweep exercises both merge loops' abandon paths.
    """
    return ("inner", "semi")[(seed // 9) % 2]


def _sharded(
    rows: int,
    data_seed: int,
    copies: int,
    plans: "dict[tuple[int, int], FaultPlan] | None" = None,
) -> tuple[ShardedDatabase, list[tuple]]:
    """One loaded range-sharded relation on ``a1`` and its dataset."""
    sdb = ShardedDatabase(
        chaos_schema(),
        SHARD_DIMS,
        "a1",
        shards=SHARDS,
        copies=copies,
        page_capacity=32,
        quarantine_threshold=2,
        fault_plans=plans,
    )
    data = chaos_data(rows, data_seed)
    sdb.load(data)
    return sdb, data


def _oracle_stream(
    data: "list[tuple]", restrictions: "dict | None", sort_attr: str
) -> list:
    """The unsharded fault-free engine's exact keyed Tetris stream."""
    table = Database().create_ub_table("oracle", chaos_schema(), SHARD_DIMS, 32)
    table.bulk_load(data)
    return list(table.tetris_scan(restrictions, sort_attr))


#: what a sharded route hands the runner: the faulted relation, the
#: operation (called with ``allow_partial=``), its oracle output, and the
#: encoded ``a1`` key of an output row (to check ``failed_ranges``)
_Route = tuple[ShardedDatabase, Callable[..., Any], list, Callable[[Any], int]]


def _scan_route(
    seed: int, copies: int, plans: "dict[tuple[int, int], FaultPlan] | None"
) -> _Route:
    """The harness query as a sorted scan of one sharded relation."""
    sdb, data = _sharded(900, 0, copies, plans)
    oracle = _oracle_stream(data, QUERY["restrictions"], QUERY["sort_attr"])
    if sorted(payload for _, payload in oracle) != sorted(_oracle_rows(data)):
        raise ChaosViolation(
            "fault-free oracle is broken; shard-chaos results are meaningless"
        )
    run = partial(sdb.sorted_scan, QUERY["restrictions"], QUERY["sort_attr"])
    return sdb, run, oracle, lambda pair: pair[0][0]


def _join_route(
    seed: int, copies: int, plans: "dict[tuple[int, int], FaultPlan] | None"
) -> _Route:
    """A co-partitioned merge join with the fault on the probe side.

    Both sides are range-sharded on the join attribute ``a1`` over the
    same encoded domain, so every slab pair is join-aligned, and the
    join runs unrestricted, so the armed fault is always on the join
    path.  The right (probe) relation is twice the size of the left
    (duplicate join keys, the usual fact-table shape).
    """
    kind = join_kind(seed)
    left, left_data = _sharded(500, 0, copies)
    right, right_data = _sharded(1000, 1, copies, plans)
    join_cls = MergeJoin if kind == "inner" else MergeSemiJoin
    oracle = list(
        join_cls(
            [row for _, row in _oracle_stream(left_data, None, "a1")],
            [row for _, row in _oracle_stream(right_data, None, "a1")],
            left_key=lambda row: row[0],
            right_key=lambda row: row[0],
        )
    )
    encode = chaos_schema().attribute("a1").encoder.encode
    run = CoPartitionedJoin(left, right, kind=kind).run
    return right, run, oracle, lambda row: encode(row[0])


def _sharded_schedule(
    route: Callable[..., _Route], seed: int, _replicas: int
) -> tuple[ChaosOutcome]:
    """Run one sharded route under the seed's :func:`shard_scenario` cell.

    The victim shard is ``seed % SHARDS``; ``corrupt``/``slow`` plans
    are armed on its primary copy, ``kill`` is scheduled through
    :meth:`~repro.shard.ShardedDatabase.kill_copy`.  Grading:

    * a run that completes non-partial must be **bit-identical** to the
      route's oracle — across failover to a replica copy, cross-copy
      page repair, and latency injection alike;
    * a ``lone`` run (no replicas) that loses its copy must end in a
      typed :class:`~repro.shard.ShardFailedError` or — on odd seeds,
      which opt into ``allow_partial`` — a result equal to the oracle
      minus its flagged ``failed_ranges``;
    * a fault-free run must not degrade, and an armed fault must
      provably fire;
    * a wrong row, a silently dropped shard, or an untyped crash is a
      :class:`ChaosViolation`.
    """
    scenario, fault = shard_scenario(seed)
    armed = None if scenario == "clean" else fault
    victim = seed % SHARDS
    plans = None
    if armed == "corrupt":
        plans = {(victim, 0): FaultPlan(seed=seed, corrupt_rate=0.30)}
    elif armed == "slow":
        plans = {
            (victim, 0): FaultPlan(seed=seed, latency_rate=0.5, latency_seconds=0.020)
        }
    target, run, oracle, key = route(seed, 2 if scenario == "failover" else 1, plans)

    target.arm_faults()
    if armed == "kill":
        target.kill_copy(victim, 0, after_rows=12 + seed % 25)
    try:
        result = run(allow_partial=scenario == "lone" and bool(seed % 2))
    except ShardFailedError as exc:
        return (
            _outcome(
                seed,
                "failed",
                target.fault_totals(),
                events=exc.degradations,
                error=f"shard {exc.shard}: {exc}",
            ),
        )
    finally:
        target.disarm_faults()

    totals = target.fault_totals()
    if result.partial:
        lost = result.failed_ranges
        expected = [
            row for row in oracle if not any(lo <= key(row) <= hi for lo, hi in lost)
        ]
        if result.rows != expected:
            raise ChaosViolation(
                f"seed {seed}: partial result is not the oracle minus its "
                "flagged ranges; the surviving rows are silently wrong"
            )
        if not result.degradations:
            raise ChaosViolation(
                f"seed {seed}: partial result carries no degradation events; "
                "a shard was dropped silently"
            )
    elif result.rows != oracle:
        raise ChaosViolation(
            f"seed {seed}: completed sharded run is not bit-identical to "
            f"its fault-free oracle ({len(result.rows)} rows vs "
            f"{len(oracle)}); this is silent garbage"
        )
    elif scenario == "clean" and result.degraded:
        raise ChaosViolation(
            f"seed {seed}: fault-free sharded world reported degradations"
        )
    elif scenario == "failover":
        if fault in ("kill", "corrupt") and not result.degraded:
            raise ChaosViolation(
                f"seed {seed}: armed {fault} fault never forced a "
                "degradation; the schedule is vacuous"
            )
        if fault == "slow" and totals["injected"] < 1:
            raise ChaosViolation(
                f"seed {seed}: latency plan never injected; the schedule "
                "is vacuous"
            )
    if armed == "kill" and target.health()[victim][0] != "dead":
        raise ChaosViolation(
            f"seed {seed}: scheduled kill never fired; the schedule is vacuous"
        )
    if result.partial:
        status = "partial"
    else:
        status = "degraded" if result.degraded else "clean"
    return (
        _outcome(
            seed, status, totals, rows=len(result.rows), events=result.degradations
        ),
    )


# ----------------------------------------------------------------------
# txn sweep: the 2PC commit path under log-device fire, plus a seeded
# crash mid-transaction followed by a reboot and decision-log recovery
# ----------------------------------------------------------------------
def txn_plan(seed: int) -> FaultPlan:
    """Log-device fault mix for one txn-sweep seed.

    Torn and transient *appends* only — log devices refuse corrupt
    plans by contract (a checksum lie on the log would be silent
    history rewriting, not a crash), and the verified force is expected
    to absorb everything this plan throws.
    """
    return FaultPlan(seed=seed, transient_rate=0.05, torn_write_rate=0.20)


def build_txn_world(
    seed: "int | None" = None,
    *,
    shards: int = 2,
    copies: int = 1,
    page_capacity: int = 16,
) -> "tuple[ShardedDatabase, TransactionCoordinator]":
    """A WAL-armed sharded world with a 2PC coordinator attached.

    With a ``seed``, every shard WAL *and* the coordinator's decision
    log get their own derived fault plan; with ``None`` the world is
    fault-free (the txn sweep's oracle and the crash grid's world).
    """
    wal_plans = None
    log_plan = None
    if seed is not None:
        wal_plans = {
            (s, c): txn_plan(seed + 7 * s + c)
            for s in range(shards)
            for c in range(copies)
        }
        log_plan = txn_plan(seed + 101)
    sdb = ShardedDatabase(
        chaos_schema(),
        SHARD_DIMS,
        "a1",
        shards=shards,
        copies=copies,
        page_capacity=page_capacity,
        wal=True,
        wal_fault_plans=wal_plans,
    )
    return sdb, TransactionCoordinator(sdb, log_fault_plan=log_plan)


def sharded_fingerprint(sdb: ShardedDatabase) -> tuple:
    """Full-domain sharded scan: the equality oracle of 2PC worlds."""
    result = sdb.sorted_scan({"a1": (0, 1023)}, "a2")
    if result.partial or result.degraded:
        raise ChaosViolation("fingerprint scan degraded unexpectedly")
    return tuple(result.rows)


def _txn_faults(sdb: ShardedDatabase, txn: TransactionCoordinator) -> int:
    """Faults injected into every log device this world owns."""
    total = sdb.fault_totals()["log_injected"]
    if isinstance(txn.log.device, FaultyDisk):
        total += txn.log.device.stats.faults.total_injected
    return total


def _txn_schedule(seed: int, _replicas: int) -> tuple[ChaosOutcome]:
    """One seed's 2PC schedule: commit through fire, then crash+recover.

    Two legs, both against a fault-free oracle world driven through the
    identical coordinator path:

    1. *commit through fire*: an ``atomic_load`` and an
       ``atomic_insert`` run with torn/transient append faults armed on
       every shard WAL and the decision log; the verified force must
       absorb every fault and the world must land bit-identical to the
       oracle.
    2. *crash + reboot + recover*: a fresh faulted world loads, then a
       deterministic crash (seed-picked log device, seed-picked append
       countdown) kills the insert mid-protocol.  Injection stops (the
       reboot), :meth:`~repro.txn.TransactionCoordinator.recover`
       replays the decision log, and the world must land on the oracle
       (durable commit verdict) or the pre-insert baseline (presumed
       abort) — with a second recovery pass changing nothing.
    """
    data = chaos_data(200, data_seed=0)
    extras = chaos_data(24, data_seed=1)

    oracle_sdb, oracle_txn = build_txn_world()
    oracle_txn.atomic_load(data)
    base_fp = sharded_fingerprint(oracle_sdb)
    devices = oracle_txn.devices()
    before = {d: oracle_txn.append_count(d) for d in devices}
    oracle_txn.atomic_insert(extras)
    #: per-device appends the insert transaction makes — identical
    #: in the faulted world (fault retries re-force, they do not
    #: re-append), so the seed can aim anywhere in the protocol
    insert_appends = {d: oracle_txn.append_count(d) - before[d] for d in devices}
    oracle_fp = sharded_fingerprint(oracle_sdb)

    # leg 1: the whole commit path under seeded log-device fire
    sdb, txn = build_txn_world(seed)
    sdb.arm_faults()
    txn.log.arm_log_faults()
    try:
        txn.atomic_load(data)
        txn.atomic_insert(extras)
    finally:
        sdb.disarm_faults()
        txn.log.disarm_log_faults()
    if sharded_fingerprint(sdb) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: committed world diverged from the oracle; "
            "a log fault leaked past the verified force"
        )
    faults = _txn_faults(sdb, txn)

    # leg 2: crash mid-insert, reboot, decision-log recovery
    sdb2, txn2 = build_txn_world(seed)
    sdb2.arm_faults()
    txn2.log.arm_log_faults()
    crashed = False
    resolved = 0
    try:
        txn2.atomic_load(data)
        # crash only on *log* devices: their appends happen strictly
        # inside transactions, so a countdown that never fires here
        # can never go off later (data-disk crash points are covered
        # exhaustively by ``tools.crashgrid``)
        log_devices = [
            device for device in txn2.devices() if not device.endswith(".disk")
        ]
        device = log_devices[seed % len(log_devices)]
        countdown = 1 + (seed // 3) % insert_appends[device]
        txn2.crash_after(device, countdown)
        try:
            txn2.atomic_insert(extras)
        except SimulatedCrashError:
            crashed = True
    finally:
        sdb2.disarm_faults()
        txn2.log.disarm_log_faults()
    faults += _txn_faults(sdb2, txn2)
    if crashed:
        report = txn2.recover()
        resolved = report.resolved_commits + report.resolved_aborts
        fp = sharded_fingerprint(sdb2)
        decided = txn2.log.decision_for("insert#1")
        expected = oracle_fp if decided == "commit" else base_fp
        if fp != expected:
            raise ChaosViolation(
                f"seed {seed}: recovery landed on neither verdict "
                f"(decision log says {decided!r})"
            )
        again = txn2.recover()
        if (
            again.resolved_commits
            or again.resolved_aborts
            or again.reacked
            or sharded_fingerprint(sdb2) != fp
        ):
            raise ChaosViolation(f"seed {seed}: txn recovery is not idempotent")
    elif sharded_fingerprint(sdb2) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: uncrashed insert diverged from the oracle"
        )
    return (
        _outcome(
            seed,
            "recovered" if crashed else "clean",
            {"injected": faults},
            rows=len(oracle_fp),
            healed=resolved,
        ),
    )


# ----------------------------------------------------------------------
# the sweep registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sweep:
    """One registered fault sweep: world → fault schedule → route → grade."""

    name: str
    #: the pinned seeds the CLI and CI sweep by default
    seeds: tuple[int, ...]
    #: ``(seed, replicas) -> outcomes``, one per graded world; runs in
    #: the active kernel backend and raises :class:`ChaosViolation` on
    #: any silent wrong answer (only the read sweep uses ``replicas``)
    schedule: Callable[[int, int], tuple[ChaosOutcome, ...]]
    #: ``(line label, replay mode)`` per graded world, when a schedule
    #: grades more than one
    worlds: tuple[tuple[str, str], ...] = ()
    #: what the summary line calls one schedule, and what it certifies
    noun: str = "schedule(s)"
    verdict: str = "zero silent wrong answers"

    @property
    def labels(self) -> tuple[tuple[str, str], ...]:
        """``(line label, replay mode)`` for each outcome of a schedule."""
        return self.worlds or (("", self.name),)


SWEEPS: dict[str, Sweep] = {
    sweep.name: sweep
    for sweep in (
        # chosen to cover clean, degraded and failed outcomes on both
        # kernel backends
        Sweep("read", (17, 23, 33), _read_schedule),
        # each picks a different victim page inside the sweep-ahead window
        Sweep(
            "prefetch",
            (3, 12, 29),
            _prefetch_schedule,
            worlds=(("demand", "prefetch-demand"), ("prefetch", "prefetch-armed")),
            noun="prefetch identity schedule(s)",
            verdict="demand and prefetch worlds degraded identically",
        ),
        # every schedule tears at least one page mid-bulk_load on both
        # backends, forcing the WAL's redo path to do real work
        Sweep("write", (7, 19, 41), _write_schedule),
        # each lands on a different shard_scenario cell: a clean run
        # (6), latency only (7), failover by kill (10), cross-copy
        # repair after corruption (13), a typed failure (2) and a
        # flagged partial (29); the join sweep runs 2/6/7 as inner
        # joins and 10/13/29 as semi-joins
        Sweep("shard", (2, 6, 7, 10, 13, 29), partial(_sharded_schedule, _scan_route)),
        Sweep("join", (2, 6, 7, 10, 13, 29), partial(_sharded_schedule, _join_route)),
        # 6 crashes the decision log's ack force (recovery re-acks a
        # committed transaction), 23 crashes a shard WAL mid-work
        # (presumed abort), 85 crashes a shard WAL's own commit record
        # (recovery resolves the in-doubt batches forward)
        Sweep("txn", (6, 23, 85), _txn_schedule),
    )
}


def run_schedule(
    sweep: str,
    seed: int,
    *,
    backend: str | None = None,
    replicas: int = 0,
) -> tuple[ChaosOutcome, ...]:
    """Run and grade one seeded schedule of ``sweep``.

    Returns one outcome per graded world (two for ``prefetch``: demand
    then prefetch, one otherwise); any broken contract raises
    :class:`ChaosViolation`.
    """
    with kernels.use_backend(backend or kernels.get_backend().name):
        return SWEEPS[sweep].schedule(seed, replicas)


def run_suite(
    sweep: str,
    seeds: "Sequence[int] | None" = None,
    *,
    backends: "Sequence[str] | None" = None,
    replicas: int = 0,
) -> list[tuple[ChaosOutcome, ...]]:
    """Sweep ``seeds`` (default: the pinned ones) across ``backends``
    (default: all available)."""
    names = list(backends) if backends else kernels.available_backends()
    chosen = SWEEPS[sweep].seeds if seeds is None else seeds
    return [
        run_schedule(sweep, seed, backend=name, replicas=replicas)
        for name in names
        for seed in chosen
    ]

"""Tests for the unified degradation telemetry (``repro.telemetry``).

The event families — planner :class:`DegradationEvent`, shard
:class:`ShardDegradationEvent`, WAL :class:`RecoveryEvent` and 2PC
:class:`TxnEvent` — share one frozen-dataclass base and one
observer-registry delivery mechanism, and every downgrade path emits
exactly one event.
"""

from dataclasses import FrozenInstanceError, dataclass

import pytest

from repro.costmodel import CostParameters
from repro.planner import (
    DegradationEvent,
    PlanExhaustedError,
    execute_sorted_query,
    register_degradation_observer,
    unregister_degradation_observer,
)
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.shard import ShardDegradationEvent
from repro.storage import (
    FaultPlan,
    RecoveryEvent,
    register_recovery_observer,
    unregister_recovery_observer,
)
from repro.storage.faults import CORRUPT
from repro.telemetry import ObserverRegistry, TelemetryEvent
from repro.txn import TxnEvent
from tools.chaos import build_world

PARAMS = CostParameters(memory_pages=8)
QUERY = {"a1": (100, 900)}


@dataclass(frozen=True)
class _ProbeEvent(TelemetryEvent):
    label: str

    def describe(self) -> str:
        return f"probe {self.label}"


# ----------------------------------------------------------------------
# the shared base
# ----------------------------------------------------------------------
class TestTelemetryEvent:
    def test_all_families_extend_the_base(self):
        assert issubclass(DegradationEvent, TelemetryEvent)
        assert issubclass(ShardDegradationEvent, TelemetryEvent)
        assert issubclass(RecoveryEvent, TelemetryEvent)
        assert issubclass(TxnEvent, TelemetryEvent)

    def test_events_are_frozen(self):
        event = _ProbeEvent(label="x")
        with pytest.raises(FrozenInstanceError):
            event.label = "y"  # type: ignore[misc]

    def test_base_describe_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TelemetryEvent().describe()

    def test_shard_event_describe_variants(self):
        failover = ShardDegradationEvent(
            shard=1,
            copy=0,
            action="failover",
            error_type="TransientIOError",
            error="boom",
            fallback_copy=1,
        )
        assert "copy 0 -> copy 1" in failover.describe()
        repaired = ShardDegradationEvent(
            shard=2,
            copy=1,
            action="repaired",
            error_type="QuarantinedPageError",
            error="page 7",
            repaired_pages=(7, 9),
        )
        assert "pages [7,9]" in repaired.describe()


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestObserverRegistry:
    def test_emit_reaches_every_observer_in_order(self):
        registry: ObserverRegistry[_ProbeEvent] = ObserverRegistry()
        calls = []
        registry.register(lambda e: calls.append(("a", e.label)))
        registry.register(lambda e: calls.append(("b", e.label)))
        registry.emit(_ProbeEvent(label="one"))
        assert calls == [("a", "one"), ("b", "one")]

    def test_unregister_stops_delivery(self):
        registry: ObserverRegistry[_ProbeEvent] = ObserverRegistry()
        calls = []
        registry.register(calls.append)
        registry.unregister(calls.append)
        registry.emit(_ProbeEvent(label="gone"))
        assert calls == []

    def test_unregister_unknown_observer_is_harmless(self):
        registry: ObserverRegistry[_ProbeEvent] = ObserverRegistry()
        registry.unregister(lambda e: None)  # never registered
        registry.emit(_ProbeEvent(label="still fine"))

    def test_emit_without_observers_is_a_no_op(self):
        registry: ObserverRegistry[_ProbeEvent] = ObserverRegistry()
        registry.emit(_ProbeEvent(label="quiet"))


# ----------------------------------------------------------------------
# exactly-once planner emission
# ----------------------------------------------------------------------
class TestPlannerEmission:
    def test_degraded_query_notifies_observer_exactly_once(self):
        db, design, data = build_world(FaultPlan(), rows=600)
        target = design.heap.heap.page_ids[0]
        db.disk.plan = FaultPlan(seed=0, scripted_reads=((target, 0, CORRUPT),))
        db.arm_faults()
        seen = []
        register_degradation_observer(seen.append)
        try:
            result = execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            unregister_degradation_observer(seen.append)
            db.disarm_faults()
        if not result.degraded:
            pytest.skip("initial plan avoided the scripted page")
        assert tuple(seen) == result.degradations
        assert all(isinstance(event, TelemetryEvent) for event in seen)

    def test_clean_query_emits_nothing(self):
        db, design, data = build_world(rows=400)
        seen = []
        register_degradation_observer(seen.append)
        try:
            result = execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            unregister_degradation_observer(seen.append)
        assert not result.degraded
        assert seen == []

    def test_exhausted_plan_still_emits_each_event_once(self):
        db, design, data = build_world(FaultPlan(), rows=400)
        db.disk.plan = FaultPlan(seed=0, transient_rate=1.0)
        db.arm_faults()
        seen = []
        register_degradation_observer(seen.append)
        try:
            with pytest.raises(PlanExhaustedError) as excinfo:
                execute_sorted_query(design, QUERY, "a2", PARAMS)
        finally:
            unregister_degradation_observer(seen.append)
            db.disarm_faults()
        assert tuple(seen) == excinfo.value.degradations
        assert len(seen) == len(set(id(event) for event in seen))


# ----------------------------------------------------------------------
# recovery emission: one structured event per recovery pass
# ----------------------------------------------------------------------
class TestRecoveryEmission:
    def _loaded_db(self):
        schema = Schema(
            [
                Attribute("k", IntEncoder(0, 1023)),
                Attribute("v", IntEncoder(0, 1023)),
            ]
        )
        db = Database(wal=True)
        table = db.create_heap_table("t", schema, 8)
        table.bulk_load([(i, i % 7) for i in range(50)])
        return db

    def test_each_recover_pass_emits_exactly_once(self):
        db = self._loaded_db()
        seen = []
        register_recovery_observer(seen.append)
        try:
            report = db.recover()
            db.recover()
        finally:
            unregister_recovery_observer(seen.append)
        assert len(seen) == 2  # one event per pass, idempotent or not
        assert all(isinstance(event, RecoveryEvent) for event in seen)
        assert seen[0].report.healed_pages == report.healed_pages
        assert seen[0].wal_name == report.wal_name
        assert seen[0].describe()

    def test_coordinator_recovery_emits_one_event_per_shard_log(self):
        from repro.shard import ShardedDatabase
        from repro.txn import TransactionCoordinator

        schema = Schema(
            [
                Attribute("a1", IntEncoder(0, 1023)),
                Attribute("a2", IntEncoder(0, 1023)),
            ]
        )
        sdb = ShardedDatabase(
            schema, ("a1", "a2"), "a1", shards=2, page_capacity=8, wal=True
        )
        txn = TransactionCoordinator(sdb)
        txn.atomic_load([(i % 1024, i * 3 % 1024) for i in range(40)])
        seen = []
        register_recovery_observer(seen.append)
        try:
            report = txn.recover()
        finally:
            unregister_recovery_observer(seen.append)
        assert len(seen) == len(report.participant_reports) == 2
        assert sorted(e.wal_name for e in seen) == [
            "shard0.copy0.wal",
            "shard1.copy0.wal",
        ]

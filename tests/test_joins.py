"""Pipelined-join tests: operators, telemetry, pushdown plans, sharding.

Complements ``test_operators.py`` (basic join semantics) with the
properties the pipelined-join work relies on:

* early exit — a merge join stops *consuming* an input once the other
  side can no longer produce matches, which is what makes restriction
  pushdown on the probe side observable as pages never read;
* exactly-once :class:`~repro.telemetry.JoinEvent` emission, with
  first-tuple clocks, only on natural drain;
* the full Q3/Q4 pushdown plans are bit-identical to the plain Tetris
  plans and to the reference evaluators, on every kernel backend;
* the dual-cursor prefetcher never changes join output, never loses to
  the solo per-scan prefetchers, and restores the scans on close;
* a co-partitioned sharded join equals the serial join bit-for-bit —
  clean, across failover, and ``allow_partial`` never silently drops
  rows outside its flagged key ranges.
"""

import datetime as dt
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    HashJoin,
    MergeJoin,
    MergeSemiJoin,
    TetrisOperator,
)
from repro.shard import CoPartitionedJoin, ShardedDatabase, ShardFailedError
from repro.storage import ICDE99_TESTBED
from repro.storage.prefetch import DualCursorPrefetcher
from repro.telemetry import register_join_observer, unregister_join_observer
from repro.tpcd import TPCDConfig, generate, plans, reference_q3, reference_q4
from repro.tpcd.queries import Q3Params, Q4Params

DIMS = ("a1", "a2")


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_rows(count: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]


@pytest.fixture(scope="module")
def data():
    return generate(TPCDConfig(scale_factor=0.1, correlated_dates=True))


#: a mid-domain date band (see bench_join.py): qualifying orderkeys are
#: then a band in the middle of the key domain, so pushdown page skips
#: are not aliased by the merge join's own early exit
Q3_BAND_PARAMS = Q3Params(
    orderdate_from=dt.date(1995, 1, 1),
    orderdate_before=dt.date(1995, 7, 1),
    shipdate_after=dt.date(1993, 6, 30),
)


#: a mid-domain Q4 window: both sweeps start mid-table and the semi-join
#: alternates its cursor across many regions of each side
Q4_BAND_PARAMS = Q4Params(
    orderdate_from=dt.date(1995, 1, 1), orderdate_until=dt.date(1995, 7, 1)
)


class ReprojectingPrefetcher(DualCursorPrefetcher):
    """The dual-cursor coordinator before projections were cached.

    Re-projects, reconciles and tops every side before every pull; the
    cached coordinator must be observationally identical to it.
    """

    def advise(self, index: int) -> None:
        if self._closed:
            return
        order = [index] + [
            side for side in range(len(self._sides)) if side != index
        ]
        for side_index in order:
            scan, prefetcher = self._sides[side_index]
            upcoming = scan.upcoming_page_ids(prefetcher.depth)
            prefetcher.retain(upcoming)
            prefetcher.top_up(upcoming)


# ----------------------------------------------------------------------
# merge-join consumption properties
# ----------------------------------------------------------------------
class TestEarlyExit:
    def test_merge_join_stops_reading_right_after_left_exhausts(self):
        left = [(1,), (2,)]
        right_iter = iter([(1,), (2,), (3,), (4,), (5,)])
        out = list(
            MergeJoin(
                left, right_iter, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == [(1, 1), (2, 2)]
        # (3,) was pulled to discover left < right; (4,) and (5,) never were
        assert list(right_iter) == [(4,), (5,)]

    def test_semi_join_stops_reading_left_after_right_exhausts(self):
        left_iter = iter([(1,), (5,), (7,), (9,)])
        right = [(1,), (4,)]
        out = list(
            MergeSemiJoin(
                left_iter, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == [(1,)]
        # right exhausted while advancing past (5,); (7,) and (9,) unread
        assert list(left_iter) == [(7,), (9,)]

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_semi_join_matches_set_reference(self, left_raw, right_raw):
        left = sorted(left_raw)
        right = sorted(right_raw)
        right_keys = {r[0] for r in right}
        expected = [r for r in left if r[0] in right_keys]
        out = list(
            MergeSemiJoin(
                left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )
        assert out == expected

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_hash_join_matches_nested_loop(self, build_raw, probe_raw):
        expected = sorted(
            b + p for b in build_raw for p in probe_raw if b[0] == p[0]
        )
        out = sorted(
            HashJoin(
                build_raw,
                probe_raw,
                build_key=lambda r: r[0],
                probe_key=lambda r: r[0],
            )
        )
        assert out == expected


# ----------------------------------------------------------------------
# JoinEvent telemetry: exactly once, only on natural drain
# ----------------------------------------------------------------------
class TestJoinEvents:
    def collect(self):
        events = []
        register_join_observer(events.append)
        return events

    def test_full_drain_emits_exactly_one_event(self):
        events = self.collect()
        try:
            join = MergeJoin(
                [(1,), (2,)],
                [(2,), (3,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                shard=7,
            )
            assert list(join) == [(2, 2)]
        finally:
            unregister_join_observer(events.append)
        assert len(events) == 1
        event = events[0]
        assert event.operator == "merge-join"
        assert event.rows == 1
        assert event.shard == 7
        assert join.last_event is event

    def test_abandoned_iteration_emits_nothing(self):
        events = self.collect()
        try:
            join = MergeJoin(
                [(1,), (2,), (3,)],
                [(1,), (2,), (3,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
            )
            iterator = iter(join)
            next(iterator)
            iterator.close()
        finally:
            unregister_join_observer(events.append)
        assert events == []
        assert join.last_event is None

    def test_event_clocks_measure_first_tuple(self):
        from repro.storage import SimulatedDisk

        disk = SimulatedDisk()

        def left():
            disk.advance_clock(2.0)
            yield (1,)
            disk.advance_clock(3.0)
            yield (2,)

        events = self.collect()
        try:
            join = MergeSemiJoin(
                left(),
                [(1,), (2,)],
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                disk=disk,
            )
            assert list(join) == [(1,), (2,)]
        finally:
            unregister_join_observer(events.append)
        (event,) = events
        assert event.first_tuple_clock - event.start_clock == pytest.approx(2.0)
        assert event.end_clock - event.start_clock == pytest.approx(5.0)
        assert event.time_to_first == pytest.approx(2.0)


# ----------------------------------------------------------------------
# full Q3/Q4 plans: pushdown bit-identity, both backends
# ----------------------------------------------------------------------
class TestPushdownPlans:
    def run_q3(self, data, params):
        db = Database(ICDE99_TESTBED, buffer_pages=256)
        customer_ub = plans.build_customer_ub(db, data)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_sort(db, data)
        probe, _ = plans.q3_lineitem_access("tetris", db, lineitem_ub, params)
        tetris_rows = list(
            plans.q3_full_plan(
                db, customer_ub, order_ub, probe, params, use_tetris=True
            )
        )
        pushed = plans.q3_pushdown_plan(
            db, customer_ub, order_ub, lineitem_ub, params
        )
        pushdown_rows = list(pushed.plan)
        return tetris_rows, pushdown_rows, pushed

    def run_q4(self, data, params):
        db = Database(ICDE99_TESTBED, buffer_pages=256)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        pipelined = plans.q4_pipelined_plan(db, order_ub, lineitem_ub, params)
        tetris_rows = list(pipelined.plan)
        pushed = plans.q4_pushdown_plan(db, order_ub, lineitem_ub, params)
        pushdown_rows = list(pushed.plan)
        return tetris_rows, pushdown_rows, pushed

    def test_q3_pushdown_bit_identical_and_skips_pages(self, data):
        params = Q3_BAND_PARAMS
        tetris_rows, pushdown_rows, pushed = self.run_q3(data, params)
        reference = reference_q3(data, params)
        assert [r[3] for r in tetris_rows] == [r[3] for r in reference]
        assert pushdown_rows == tetris_rows
        assert pushed.probe.stats.pages_skipped_by_pushdown > 0
        assert pushed.build_rows > 0
        assert len(pushed.cover.intervals) <= pushed.cover.budget

    def test_q4_pushdown_bit_identical_and_skips_pages(self, data):
        params = Q4Params()
        tetris_rows, pushdown_rows, pushed = self.run_q4(data, params)
        assert tetris_rows == reference_q4(data, params)
        assert pushdown_rows == tetris_rows
        assert pushed.probe.stats.pages_skipped_by_pushdown > 0

    def test_backends_bit_identical(self, data):
        results = {}
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                q3_tetris, q3_pushdown, _ = self.run_q3(data, Q3_BAND_PARAMS)
                q4_tetris, q4_pushdown, _ = self.run_q4(data, Q4Params())
                results[backend] = (q3_tetris, q3_pushdown, q4_tetris, q4_pushdown)
        reference = next(iter(results.values()))
        for backend, got in results.items():
            assert got == reference, f"backend {backend} diverged"

    def test_empty_build_side_yields_empty_join(self, data):
        # a zero-width date window qualifies nothing; the pushdown cover
        # is empty and the probe sweep reads no regions
        params = Q4Params(
            orderdate_from=dt.date(1997, 1, 2),
            orderdate_until=dt.date(1997, 1, 2),
        )
        tetris_rows, pushdown_rows, pushed = self.run_q4(data, params)
        assert tetris_rows == pushdown_rows == []
        assert pushed.build_rows == 0
        assert pushed.probe.stats.regions_read == 0


# ----------------------------------------------------------------------
# dual-cursor prefetching
# ----------------------------------------------------------------------
class TestDualCursorPrefetch:
    def run_pipelined(self, data, *, prefetch):
        db = Database(ICDE99_TESTBED, buffer_pages=256, devices=4, prefetch_depth=8)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        db.reset_measurement()
        before = db.disk.snapshot()
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4Params(), prefetch=prefetch
        )
        rows = list(pipelined.plan)
        elapsed = (db.disk.snapshot() - before).time
        return rows, elapsed, pipelined

    def test_output_identical_and_not_slower(self, data):
        solo_rows, solo_elapsed, _ = self.run_pipelined(data, prefetch=False)
        dual_rows, dual_elapsed, pipelined = self.run_pipelined(
            data, prefetch=True
        )
        assert dual_rows == solo_rows == reference_q4(data, Q4Params())
        assert dual_elapsed <= solo_elapsed * (1 + 1e-9)

    def test_scans_restored_after_drain(self, data):
        _, _, pipelined = self.run_pipelined(data, prefetch=True)
        assert pipelined.prefetch is not None
        assert pipelined.left.scan.external_prefetch is False
        assert pipelined.right.scan.external_prefetch is False

    # -- advice is exact: the cached coordinator against the oracle ----
    def fingerprint(self, db, rows, left_scan, right_scan):
        pool = db.buffer
        return (
            rows,
            list(left_scan.page_access_order),
            list(right_scan.page_access_order),
            (pool.prefetch_issued, pool.prefetch_claimed, pool.prefetch_cancelled),
            db.disk.snapshot(),
            db.disk.clock,
        )

    def q4_fingerprint(self, data, coordinator, monkeypatch, devices, depth):
        monkeypatch.setattr(plans, "DualCursorPrefetcher", coordinator)
        db = Database(
            ICDE99_TESTBED, buffer_pages=64, devices=devices, prefetch_depth=depth
        )
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        db.reset_measurement()
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4_BAND_PARAMS, prefetch=True
        )
        assert type(pipelined.prefetch) is coordinator
        rows = list(pipelined.plan)
        return self.fingerprint(
            db, rows, pipelined.left.scan, pipelined.right.scan
        )

    def merge_fingerprint(self, coordinator, devices, depth):
        # the pool holds the whole left table plus 16 frames, and the
        # left table starts warm: its projected pages are resident (the
        # window refuses them) until the right sweep's reads evict them
        # while the left cursor stands still — the case in which a
        # cached projection must still be topped up
        db = Database(buffer_pages=73, devices=devices, prefetch_depth=depth)
        left = db.create_ub_table("left", make_schema(), DIMS, 16)
        left.bulk_load(make_rows(900, seed=11))
        right = db.create_ub_table("right", make_schema(), DIMS, 16)
        right.bulk_load(make_rows(1300, seed=12))
        assert left.page_count == 57
        db.reset_measurement()
        for _ in left.tetris_scan(None, "a1"):
            pass
        left_stream = TetrisOperator(left, {"a2": (100, 900)}, "a1")
        right_stream = TetrisOperator(right, {"a2": (0, 600)}, "a1")
        dual = coordinator.for_operators(left_stream, right_stream)
        assert dual is not None
        rows = list(
            MergeJoin(
                left_stream,
                right_stream,
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                disk=db.disk,
                prefetch=dual,
            )
        )
        return self.fingerprint(db, rows, left_stream.scan, right_stream.scan)

    @pytest.mark.parametrize("depth", [1, 4, 8])
    @pytest.mark.parametrize("devices", [2, 4])
    def test_cached_advice_matches_reprojecting_oracle_on_q4(
        self, data, monkeypatch, devices, depth
    ):
        oracle = self.q4_fingerprint(
            data, ReprojectingPrefetcher, monkeypatch, devices, depth
        )
        cached = self.q4_fingerprint(
            data, DualCursorPrefetcher, monkeypatch, devices, depth
        )
        assert cached == oracle
        assert oracle[0] == reference_q4(data, Q4_BAND_PARAMS)
        assert oracle[3][0] > 0  # the windows really were driven

    @pytest.mark.parametrize("depth", [1, 4, 8])
    @pytest.mark.parametrize("devices", [2, 4])
    def test_cached_advice_matches_reprojecting_oracle_on_merge_join(
        self, devices, depth
    ):
        oracle = self.merge_fingerprint(ReprojectingPrefetcher, devices, depth)
        cached = self.merge_fingerprint(DualCursorPrefetcher, devices, depth)
        assert cached == oracle
        assert oracle[0]
        assert oracle[3][0] > 0

    def test_no_prefetch_database_degrades_to_none(self, data):
        db = Database(ICDE99_TESTBED, buffer_pages=256)
        order_ub = plans.build_order_ub(db, data)
        lineitem_ub = plans.build_lineitem_ub_q4(db, data)
        pipelined = plans.q4_pipelined_plan(
            db, order_ub, lineitem_ub, Q4Params(), prefetch=True
        )
        assert pipelined.prefetch is None
        assert list(pipelined.plan) == reference_q4(data, Q4Params())


# ----------------------------------------------------------------------
# co-partitioned sharded joins
# ----------------------------------------------------------------------
class TestCoPartitionedJoin:
    LEFT_ROWS = make_rows(420, seed=5)
    RIGHT_ROWS = make_rows(700, seed=6)

    def serial_stream(self, rows):
        db = Database(buffer_pages=64)
        table = db.create_ub_table("serial", make_schema(), DIMS, 32)
        table.bulk_load(rows)
        return [row for _, row in table.tetris_scan(None, "a1")]

    def oracle(self, kind):
        left = self.serial_stream(self.LEFT_ROWS)
        right = self.serial_stream(self.RIGHT_ROWS)
        join_cls = MergeJoin if kind == "inner" else MergeSemiJoin
        return list(
            join_cls(
                left, right, left_key=lambda r: r[0], right_key=lambda r: r[0]
            )
        )

    def make_pair(self, *, shards, copies=1):
        left = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=shards, copies=copies
        )
        left.load(self.LEFT_ROWS)
        right = ShardedDatabase(
            make_schema(), DIMS, "a1", shards=shards, copies=copies
        )
        right.load(self.RIGHT_ROWS)
        return left, right

    @pytest.mark.parametrize("kind", ["inner", "semi"])
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_bit_identical_to_serial_join(self, kind, shards):
        left, right = self.make_pair(shards=shards)
        result = CoPartitionedJoin(left, right, kind=kind).run()
        assert result.rows == self.oracle(kind)
        assert not result.degraded
        assert not result.partial
        assert sum(result.per_shard_rows) == len(result.rows)

    def test_one_event_per_surviving_leg_with_clocks(self):
        left, right = self.make_pair(shards=4)
        result = CoPartitionedJoin(left, right, kind="inner").run()
        assert len(result.join_events) == 4  # one per surviving leg
        for event in result.join_events:
            assert event.operator == "merge-join"
            assert event.shard is not None
            if event.rows:
                assert event.time_to_first is not None
                assert event.time_to_first >= 0.0

    def test_mismatched_slabs_rejected(self):
        left, _ = self.make_pair(shards=2)
        _, right = self.make_pair(shards=3)
        with pytest.raises(ValueError):
            CoPartitionedJoin(left, right)

    def test_failover_mid_join_is_bit_identical(self):
        left, right = self.make_pair(shards=3, copies=2)
        right.kill_copy(1, 0, after_rows=25)
        result = CoPartitionedJoin(left, right, kind="inner").run()
        assert result.rows == self.oracle("inner")
        assert result.degraded
        assert not result.partial

    def test_last_copy_death_raises_typed_error(self):
        left, right = self.make_pair(shards=3, copies=1)
        right.kill_copy(1, 0, after_rows=10)
        with pytest.raises(ShardFailedError):
            CoPartitionedJoin(left, right, kind="inner").run()

    def test_allow_partial_never_silently_drops(self):
        left, right = self.make_pair(shards=3, copies=1)
        right.kill_copy(1, 0, after_rows=10)
        result = CoPartitionedJoin(left, right, kind="inner").run(
            allow_partial=True
        )
        assert result.partial
        assert result.failed_ranges
        encoder = make_schema().attribute("a1").encoder
        lost = {
            row[:3]
            for row in self.oracle("inner")
            if any(
                lo <= encoder.encode(row[0]) <= hi
                for lo, hi in result.failed_ranges
            )
        }
        surviving = [
            row
            for row in self.oracle("inner")
            if row[:3] not in lost
        ]
        assert result.rows == surviving

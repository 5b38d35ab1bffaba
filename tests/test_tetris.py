"""Tests for the Tetris algorithm: order, single-access, equivalence, stats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import QueryBox, TetrisScan, UBTree, ZSpace, tetris_sorted
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
    PredicateSpace,
    box_is_empty,
)
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import MergeJoin, TetrisOperator
from repro.storage import BufferPool, IOScheduler, SimulatedDisk, SweepPrefetcher
from repro.storage.prefetch import DualCursorPrefetcher

STRATEGIES = ("sweep", "eager")


def make_ubtree(bits=(4, 4), page_capacity=4, buffer_pages=512):
    disk = SimulatedDisk()
    pool = BufferPool(disk, buffer_pages)
    return UBTree(pool, ZSpace(bits), page_capacity=page_capacity), disk


def fill(ubtree, count, seed=0, bits=(4, 4)):
    rng = random.Random(seed)
    points = []
    for index in range(count):
        point = tuple(rng.randrange(1 << b) for b in bits)
        points.append(point)
        ubtree.insert(point, index)
    return points


def expected_sorted(points, box, dim, descending=False):
    inside = [(p, i) for i, p in enumerate(points) if box.contains_point(p)]
    inside.sort(key=lambda entry: entry[0][dim], reverse=descending)
    return inside


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestSortedOutput:
    def test_full_universe_sorted(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 120, seed=1)
        box = QueryBox.full(ubtree.space.coord_max)
        for dim in (0, 1):
            out = list(tetris_sorted(ubtree, box, dim, strategy=strategy))
            values = [p[dim] for p, _ in out]
            assert values == sorted(values)
            assert len(out) == len(points)

    def test_restricted_sorted(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 150, seed=2)
        box = QueryBox((3, 2), (12, 13))
        out = list(tetris_sorted(ubtree, box, 1, strategy=strategy))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        assert sorted(map(repr, out)) == sorted(
            map(repr, expected_sorted(points, box, 1))
        )

    def test_descending(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 100, seed=3)
        box = QueryBox((1, 1), (14, 14))
        out = list(
            tetris_sorted(ubtree, box, 0, descending=True, strategy=strategy)
        )
        values = [p[0] for p, _ in out]
        assert values == sorted(values, reverse=True)
        assert len(out) == len(expected_sorted(points, box, 0))

    def test_empty_result(self, strategy):
        ubtree, _ = make_ubtree()
        fill(ubtree, 20, seed=4)
        empty = QueryBox((9, 9), (3, 3))
        scan = tetris_sorted(ubtree, empty, 0, strategy=strategy)
        assert list(scan) == []
        assert scan.stats.regions_read == 0

    def test_empty_table(self, strategy):
        ubtree, _ = make_ubtree()
        box = QueryBox.full(ubtree.space.coord_max)
        out = list(tetris_sorted(ubtree, box, 1, strategy=strategy))
        assert out == []

    def test_three_dimensions(self, strategy):
        ubtree, _ = make_ubtree(bits=(3, 3, 3), page_capacity=4)
        points = fill(ubtree, 150, seed=5, bits=(3, 3, 3))
        box = QueryBox((0, 2, 1), (7, 6, 5))
        for dim in range(3):
            out = list(tetris_sorted(ubtree, box, dim, strategy=strategy))
            values = [p[dim] for p, _ in out]
            assert values == sorted(values)
            assert len(out) == len(expected_sorted(points, box, dim))

    def test_unequal_bit_lengths(self, strategy):
        ubtree, _ = make_ubtree(bits=(2, 6), page_capacity=3)
        points = fill(ubtree, 120, seed=6, bits=(2, 6))
        box = QueryBox((0, 10), (3, 50))
        out = list(tetris_sorted(ubtree, box, 1, strategy=strategy))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        assert len(out) == len(expected_sorted(points, box, 1))

    def test_stable_payloads_preserved(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        ubtree.insert((2, 2), "a")
        ubtree.insert((2, 2), "b")
        box = QueryBox.full(ubtree.space.coord_max)
        out = list(tetris_sorted(ubtree, box, 0, strategy=strategy))
        assert sorted(payload for _, payload in out) == ["a", "b"]


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestIOBehaviour:
    def test_each_page_read_exactly_once(self, strategy):
        ubtree, disk = make_ubtree(page_capacity=3, buffer_pages=4)
        fill(ubtree, 200, seed=7)
        ubtree.tree.buffer.drop_all()
        box = QueryBox((2, 2), (13, 13))
        scan = tetris_sorted(ubtree, box, 1, strategy=strategy)
        before = disk.snapshot()
        list(scan)
        delta = disk.snapshot() - before
        # no page id repeats, and priced reads equal distinct pages
        assert len(scan.page_access_order) == len(set(scan.page_access_order))
        assert delta.pages_read == len(scan.page_access_order)
        assert delta.read_seeks == delta.pages_read  # all random accesses
        assert delta.pages_written == 0  # no external sort

    def test_reads_only_overlapping_regions(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=2)
        fill(ubtree, 150, seed=8)
        box = QueryBox((0, 0), (3, 3))  # small corner
        scan = tetris_sorted(ubtree, box, 0, strategy=strategy)
        list(scan)
        overlapping = sum(1 for _ in ubtree.regions_overlapping(box))
        assert scan.stats.regions_read == overlapping
        assert scan.stats.regions_read < ubtree.region_count

    def test_cache_smaller_than_result(self, strategy):
        ubtree, _ = make_ubtree(bits=(6, 6), page_capacity=4)
        points = fill(ubtree, 600, seed=9, bits=(6, 6))
        box = QueryBox.full(ubtree.space.coord_max)
        scan = tetris_sorted(ubtree, box, 1, strategy=strategy)
        out = list(scan)
        # the Tetris cache holds one slice, far less than the result
        assert scan.stats.max_cache_tuples < len(out)

    def test_first_output_before_last_read(self, strategy):
        ubtree, disk = make_ubtree(bits=(5, 5), page_capacity=3)
        fill(ubtree, 400, seed=10, bits=(5, 5))
        ubtree.tree.buffer.drop_all()
        box = QueryBox.full(ubtree.space.coord_max)
        scan = tetris_sorted(ubtree, box, 0, strategy=strategy)
        iterator = iter(scan)
        next(iterator)
        first_clock = disk.clock
        for _ in iterator:
            pass
        assert first_clock < disk.clock  # pipelined: output before the end
        assert scan.stats.time_to_first is not None
        assert scan.stats.time_to_first < scan.stats.elapsed

    def test_slices_counted(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 120, seed=11)
        box = QueryBox.full(ubtree.space.coord_max)
        scan = tetris_sorted(ubtree, box, 1, strategy=strategy)
        list(scan)
        assert scan.stats.slices >= 2
        assert scan.stats.cache_pages(3) >= 1


class TestStrategyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_pages_same_stream(self, seed):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 150, seed=seed)
        rng = random.Random(seed + 100)
        lo = (rng.randrange(8), rng.randrange(8))
        hi = tuple(rng.randrange(l, 16) for l in lo)
        box = QueryBox(lo, hi)
        for dim in (0, 1):
            sweep = tetris_sorted(ubtree, box, dim, strategy="sweep")
            eager = tetris_sorted(ubtree, box, dim, strategy="eager")
            sweep_out = list(sweep)
            eager_out = list(eager)
            assert sweep_out == eager_out
            assert sweep.page_access_order == eager.page_access_order
            assert sweep.stats.regions_read == eager.stats.regions_read

    def test_equivalence_on_triangular_space(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 150, seed=42)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, "<", 1)]
        )
        sweep = tetris_sorted(ubtree, space, 1, strategy="sweep")
        eager = tetris_sorted(ubtree, space, 1, strategy="eager")
        assert list(sweep) == list(eager)
        assert sweep.page_access_order == eager.page_access_order

    def test_equivalence_descending(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 120, seed=43)
        box = QueryBox((1, 0), (13, 15))
        sweep = tetris_sorted(ubtree, box, 0, descending=True, strategy="sweep")
        eager = tetris_sorted(ubtree, box, 0, descending=True, strategy="eager")
        assert list(sweep) == list(eager)
        assert sweep.page_access_order == eager.page_access_order


class TestNonRectangularSpaces:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_triangular_output(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 200, seed=12)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, "<", 1)]
        )
        out = list(tetris_sorted(ubtree, space, 1, strategy=strategy))
        assert [p[1] for p, _ in out] == sorted(p[1] for p, _ in out)
        expected = sorted((p, i) for i, p in enumerate(points) if p[0] < p[1])
        assert sorted(out) == expected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_triangular_skips_regions(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        fill(ubtree, 300, seed=13)
        space = IntersectionSpace(
            [QueryBox.full(ubtree.space.coord_max), ComparisonSpace(2, 0, ">", 1)]
        )
        scan = tetris_sorted(ubtree, space, 0, strategy=strategy)
        list(scan)
        assert scan.stats.regions_skipped > 0
        assert scan.stats.regions_read < ubtree.region_count

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_predicate_space_no_pruning_but_correct(self, strategy):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 100, seed=14)
        space = IntersectionSpace(
            [
                QueryBox.full(ubtree.space.coord_max),
                PredicateSpace(2, lambda p: (p[0] + p[1]) % 3 == 0),
            ]
        )
        out = list(tetris_sorted(ubtree, space, 0, strategy=strategy))
        expected = sorted(
            ((p, i) for i, p in enumerate(points) if (p[0] + p[1]) % 3 == 0),
            key=lambda e: e[0][0],
        )
        assert len(out) == len(expected)
        assert [p[0] for p, _ in out] == [p[0] for p, _ in expected]


class TestValidation:
    def test_rejects_unknown_strategy(self):
        ubtree, _ = make_ubtree()
        box = QueryBox.full(ubtree.space.coord_max)
        with pytest.raises(ValueError):
            TetrisScan(ubtree, box, 0, strategy="magic")

    def test_rejects_bad_sort_dim(self):
        ubtree, _ = make_ubtree()
        box = QueryBox.full(ubtree.space.coord_max)
        with pytest.raises(ValueError):
            TetrisScan(ubtree, box, 5)


@st.composite
def tetris_cases(draw):
    dims = draw(st.integers(2, 3))
    bits = tuple(draw(st.integers(2, 4)) for _ in range(dims))
    count = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 10_000))
    lo = tuple(draw(st.integers(0, (1 << b) - 1)) for b in bits)
    hi = tuple(draw(st.integers(low, (1 << b) - 1)) for low, b in zip(lo, bits))
    dim = draw(st.integers(0, dims - 1))
    descending = draw(st.booleans())
    return bits, count, seed, lo, hi, dim, descending


@given(tetris_cases())
@settings(max_examples=60, deadline=None)
def test_tetris_property(case):
    """Both strategies produce the same, correctly sorted, complete stream."""
    bits, count, seed, lo, hi, dim, descending = case
    ubtree, _ = make_ubtree(bits=bits, page_capacity=3)
    points = fill(ubtree, count, seed=seed, bits=bits)
    box = QueryBox(lo, hi)
    sweep = tetris_sorted(ubtree, box, dim, descending=descending, strategy="sweep")
    eager = tetris_sorted(ubtree, box, dim, descending=descending, strategy="eager")
    sweep_out = list(sweep)
    assert sweep_out == list(eager)
    assert sweep.page_access_order == eager.page_access_order
    values = [p[dim] for p, _ in sweep_out]
    assert values == sorted(values, reverse=descending)
    expected = expected_sorted(points, box, dim, descending)
    assert len(sweep_out) == len(expected)
    assert sorted(map(repr, sweep_out)) == sorted(map(repr, expected))


# ----------------------------------------------------------------------
# slice-granular emission
# ----------------------------------------------------------------------
class PerRowTetrisScan(TetrisScan):
    """The sweep before slice emission: one generator step per row.

    Kept as the oracle the slice-granular driver must match on drained
    scans — same stream, same page order, same stats.
    """

    def __iter__(self):
        if box_is_empty(self._box):
            return super().__iter__()
        return self._per_row(self._ensure_cursor())

    def _per_row(self, regions):
        buffer = self.ubtree.tree.buffer
        disk = buffer.disk
        stats = self.stats
        kernel = kernels.get_backend()
        stats.start_clock = disk.clock
        run_buffer = kernel.make_run_buffer()
        arrivals = []
        prefetcher = SweepPrefetcher.for_pool(buffer, category=self.ubtree.category)
        try:
            for _, _, page_id, barrier in regions:
                if prefetcher is not None:
                    prefetcher.top_up(
                        entry[2] for entry in regions.peek(prefetcher.depth)
                    )
                page = buffer.get(page_id, category=self.ubtree.category)
                if prefetcher is not None:
                    prefetcher.mark_consumed(page_id)
                stats.regions_read += 1
                self._page_reads.append(page_id)
                count, selected, run = kernel.scan_page_run(
                    self.tetris_curve, self.effective_space, page, len(arrivals)
                )
                if count:
                    arrivals.extend(page.records[index][1] for index in selected)
                    run_buffer.push(run)
                stats.max_cache_tuples = max(stats.max_cache_tuples, len(run_buffer))
                if not run_buffer.has_key_below(barrier):
                    continue
                for position in run_buffer.cut(barrier):
                    if stats.first_output_clock is None:
                        stats.first_output_clock = disk.clock
                    stats.tuples_output += 1
                    stats.end_clock = disk.clock
                    yield arrivals[position]
                stats.slices += 1
            for position in run_buffer.cut(None):
                if stats.first_output_clock is None:
                    stats.first_output_clock = disk.clock
                stats.tuples_output += 1
                yield arrivals[position]
            stats.end_clock = disk.clock
        finally:
            if prefetcher is not None:
                prefetcher.close()


def prefetching_ubtree(bits, *, devices=2, depth=4, buffer_pages=48):
    disk = SimulatedDisk()
    scheduler = IOScheduler(disk, devices, prefetch_depth=depth)
    pool = BufferPool(disk, buffer_pages, scheduler=scheduler)
    return UBTree(pool, ZSpace(bits), page_capacity=4), disk


class TestSliceEmission:
    BITS = (5, 5, 4)

    def drained(self, scan_cls, backend, *, descending, pushdown, restriction,
                prefetch):
        if prefetch:
            ubtree, disk = prefetching_ubtree(self.BITS)
        else:
            ubtree, disk = make_ubtree(bits=self.BITS, buffer_pages=48)
        fill(ubtree, 500, seed=31, bits=self.BITS)
        ubtree.tree.buffer.drop_all()
        box = QueryBox((2, 0, 1), (29, 31, 14))
        space = (
            box
            if restriction == "box"
            else IntersectionSpace([box, ComparisonSpace(3, 0, "<", 1)])
        )
        cover = (
            IntervalUnionSpace(ubtree.space.coord_max, 2, ((1, 3), (6, 6), (9, 12)))
            if pushdown
            else None
        )
        with kernels.use_backend(backend):
            scan = scan_cls(
                ubtree, space, 1, descending=descending, pushdown=cover
            )
            stream = []
            for row in scan:
                stream.append(row)
                disk.advance_clock(0.001)  # the consumer's own work
        return stream, scan.page_access_order, vars(scan.stats), disk.clock

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("restriction", ["box", "triangle"])
    @pytest.mark.parametrize("pushdown", [False, True])
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_drained_scan_matches_per_row_emission(
        self, backend, descending, pushdown, restriction, prefetch
    ):
        options = dict(
            descending=descending,
            pushdown=pushdown,
            restriction=restriction,
            prefetch=prefetch,
        )
        sliced = self.drained(TetrisScan, backend, **options)
        per_row = self.drained(PerRowTetrisScan, backend, **options)
        assert sliced == per_row
        stream, _, stats, _ = sliced
        assert stats["slices"] >= 2
        assert stats["tuples_output"] == len(stream) > 0
        if pushdown:
            assert stats["pages_skipped_by_pushdown"] > 0

    def test_close_mid_slice_cancels_the_window(self):
        ubtree, _ = prefetching_ubtree(self.BITS, devices=4, depth=8)
        fill(ubtree, 500, seed=32, bits=self.BITS)
        pool = ubtree.tree.buffer
        pool.drop_all()
        scan = tetris_sorted(ubtree, QueryBox.full(ubtree.space.coord_max), 0)
        stream = iter(scan)
        pulled = 0
        # stop inside a slice of several rows, with reads in flight
        while not (0 < pulled < scan.stats.tuples_output and pool.prefetch_pending):
            next(stream)
            pulled += 1
        stream.close()
        assert pool.scheduler.inflight_count == 0
        assert pool.prefetch_pending == frozenset()
        assert pool.prefetch_issued == pool.prefetch_claimed + pool.prefetch_cancelled
        assert next(stream, None) is None  # closed streams stay closed

    def test_close_mid_slice_of_a_join_side_cancels_both_windows(self):
        schema = Schema(
            [
                Attribute("a1", IntEncoder(0, 1023)),
                Attribute("a2", IntEncoder(0, 1023)),
                Attribute("v", IntEncoder(0, 10**9)),
            ]
        )
        rng = random.Random(33)
        db = Database(buffer_pages=48, devices=4, prefetch_depth=8)
        tables = []
        for name, count in (("left", 700), ("right", 900)):
            table = db.create_ub_table(name, schema, ("a1", "a2"), 16)
            table.bulk_load(
                [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]
            )
            tables.append(table)
        db.reset_measurement()
        left = TetrisOperator(tables[0], {"a2": (0, 700)}, "a1")
        right = TetrisOperator(tables[1], {"a2": (200, 1023)}, "a1")
        dual = DualCursorPrefetcher.for_operators(left, right)
        pulled = [0, 0]

        def counted(rows, side):
            for row in rows:
                pulled[side] += 1
                yield row

        join = iter(
            MergeJoin(
                counted(left, 0),
                counted(right, 1),
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
                disk=db.disk,
                prefetch=dual,
            )
        )
        while not (
            0 < pulled[1] < right.stats.tuples_output and db.buffer.prefetch_pending
        ):
            next(join)
        join.close()
        assert db.scheduler.inflight_count == 0
        assert db.buffer.prefetch_pending == frozenset()
        assert left.scan.external_prefetch is False
        assert right.scan.external_prefetch is False

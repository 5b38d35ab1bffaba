"""Tests for slab-parallel Tetris execution: slab planning and the
bit-identical-stream contract across worker counts, sort directions,
composite orders and non-box query spaces.

The CI parallel matrix sets ``REPRO_PARALLEL_WORKERS`` (2 and 4); the
identity tests honour it so both pool widths are exercised.
"""

import os
import random

import pytest

from repro import kernels
from repro.core.query_space import QueryBox
from repro.planner import (
    ParallelScanResult,
    SweepSlab,
    parallel_tetris_scan,
    plan_slabs,
)
from repro.relational import Attribute, Database, IntEncoder, Schema

#: pool width under test — the CI matrix sweeps 2 and 4
WORKERS = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))
#: the executor a scan over at least WORKERS slabs runs on
WORKERS_EXECUTOR = "inline" if WORKERS == 1 else "threads"

SEED = 20260806


def make_table(rows=800, seed=SEED):
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]
    db = Database(buffer_pages=64)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    db.buffer.flush()
    db.reset_measurement()
    return ub


# ----------------------------------------------------------------------
# slab planning
# ----------------------------------------------------------------------
class TestPlanSlabs:
    def test_slabs_are_disjoint_contiguous_and_cover_the_range(self):
        box = QueryBox((0, 100), (1023, 900))
        slabs = plan_slabs(box, 1, (1023, 1023), 4)
        assert slabs[0].lo == 100
        assert slabs[-1].hi == 900
        for earlier, later in zip(slabs, slabs[1:]):
            assert later.lo == earlier.hi + 1
        assert sum(slab.width for slab in slabs) == 801

    def test_narrow_range_yields_fewer_slabs(self):
        box = QueryBox((0, 10), (1023, 12))
        slabs = plan_slabs(box, 1, (1023, 1023), 8)
        assert len(slabs) == 3
        assert [(slab.lo, slab.hi) for slab in slabs] == [(10, 10), (11, 11), (12, 12)]

    def test_empty_box_yields_no_slabs(self):
        box = QueryBox((5, 500), (3, 600))  # lo > hi on dim 0
        assert plan_slabs(box, 1, (1023, 1023), 4) == []

    def test_single_slab_is_the_whole_range(self):
        box = QueryBox((0, 0), (1023, 1023))
        (slab,) = plan_slabs(box, 0, (1023, 1023), 1)
        assert (slab.lo, slab.hi) == (0, 1023)

    def test_invalid_slab_count_rejected(self):
        box = QueryBox((0, 0), (1023, 1023))
        with pytest.raises(ValueError):
            plan_slabs(box, 0, (1023, 1023), 0)

    def test_slab_indices_are_sequential(self):
        box = QueryBox((0, 0), (1023, 1023))
        slabs = plan_slabs(box, 0, (1023, 1023), 4)
        assert [slab.index for slab in slabs] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the contract: concatenated slab streams == the serial stream, bit for bit
# ----------------------------------------------------------------------
class TestBitIdenticalStreams:
    @pytest.fixture(scope="class")
    def table(self):
        return make_table()

    def test_restricted_ascending(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS
        )
        assert result.rows == serial
        assert sum(result.per_slab_counts) == len(serial)

    def test_unrestricted_full_space(self, table):
        serial = list(table.tetris_scan(None, "a1"))
        result = parallel_tetris_scan(table, None, "a1", workers=WORKERS)
        assert result.rows == serial

    def test_descending(self, table):
        serial = list(
            table.tetris_scan({"a1": (100, 900)}, "a2", descending=True)
        )
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, descending=True
        )
        assert result.rows == serial

    def test_composite_sort_order(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, ("a2", "a1")))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, ("a2", "a1"), workers=WORKERS
        )
        assert result.rows == serial

    def test_sweep_strategy(self, table):
        serial = list(
            table.tetris_scan({"a1": (100, 900)}, "a2", strategy="sweep")
        )
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, strategy="sweep"
        )
        assert result.rows == serial

    def test_half_space_query(self, table):
        space = table.comparison_space("a1", "<", "a2")
        serial = list(table.tetris_scan(space, "a2"))
        result = parallel_tetris_scan(table, space, "a2", workers=WORKERS)
        assert result.rows == serial

    def test_more_slabs_than_workers(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, slabs=7
        )
        assert result.rows == serial
        assert len(result.slabs) == 7
        assert result.workers == WORKERS
        assert result.executor == WORKERS_EXECUTOR

    def test_single_worker_runs_inline(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(table, {"a1": (100, 900)}, "a2", workers=1)
        assert result.rows == serial
        assert result.workers == 1
        assert result.executor == "inline"

    def test_empty_query_yields_empty_result(self, table):
        result = parallel_tetris_scan(
            table, {"a1": (900, 100)}, "a2", workers=WORKERS
        )
        assert result.rows == []
        assert result.slabs == []
        assert result.executor == "inline"

    def test_worker_counts_agree_with_each_other(self, table):
        streams = [
            parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=workers
            ).rows
            for workers in (1, 2, 4)
        ]
        assert streams[0] == streams[1] == streams[2]


# ----------------------------------------------------------------------
# result surface and validation
# ----------------------------------------------------------------------
class TestResultSurface:
    def test_result_iterates_and_measures(self):
        result = ParallelScanResult(
            slabs=[SweepSlab(0, 0, 10)],
            per_slab_counts=[2],
            rows=[((1,), "x"), ((2,), "y")],
            workers=1,
        )
        assert len(result) == 2
        assert list(result) == result.rows

    def test_result_surface_defaults(self):
        result = ParallelScanResult(
            slabs=[], per_slab_counts=[], rows=[], workers=1
        )
        assert result.executor == "inline"

    def test_slab_width(self):
        assert SweepSlab(0, 10, 19).width == 10

    def test_invalid_worker_count_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, "a1", workers=0)

    def test_empty_sort_attrs_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, (), workers=2)


# ----------------------------------------------------------------------
# the parity contract: both executors yield the serial stream on both
# backends; the executor follows from min(workers, planned slabs) alone
# ----------------------------------------------------------------------
BACKENDS = tuple(kernels.available_backends())


class TestExecutorParity:
    @pytest.fixture(scope="class")
    def table(self):
        return make_table()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("descending", (False, True), ids=("asc", "desc"))
    def test_stream_bit_identical_to_serial(
        self, table, backend, workers, descending
    ):
        with kernels.use_backend(backend):
            serial = list(
                table.tetris_scan({"a1": (100, 900)}, "a2", descending=descending)
            )
            result = parallel_tetris_scan(
                table,
                {"a1": (100, 900)},
                "a2",
                workers=workers,
                descending=descending,
            )
        assert result.rows == serial
        assert result.executor == ("inline" if workers == 1 else "threads")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_descending_sweep_parity_on_threads(self, table, backend):
        with kernels.use_backend(backend):
            serial = list(
                table.tetris_scan(
                    {"a1": (100, 900)}, "a2", descending=True, strategy="sweep"
                )
            )
            result = parallel_tetris_scan(
                table,
                {"a1": (100, 900)},
                "a2",
                workers=WORKERS,
                descending=True,
                strategy="sweep",
            )
        assert result.rows == serial
        assert result.executor == WORKERS_EXECUTOR

    def test_single_slab_downgrades_to_inline(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=4, slabs=1
        )
        assert result.rows == serial
        assert result.executor == "inline"
        assert result.workers == 1
        assert len(result.slabs) == 1

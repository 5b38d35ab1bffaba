"""NumPy kernel backend: vectorized batch primitives.

The scalar :class:`~repro.core.curves.Curve` already encodes through
byte-chunked lookup tables; this backend lifts those same tables into
``uint64`` NumPy arrays and applies them to whole columns at once — one
fancy-indexing gather per (dimension, byte chunk) instead of a Python
loop per tuple.  Filtering compares entire coordinate columns, and key
sorts use NumPy's stable ``argsort`` / ``lexsort``.

Addresses are carried as ``uint64``, so curves wider than 64 bits (or
key values outside the ``uint64`` / ``int64`` range) transparently fall
back to the pure-Python backend for that call — correctness never
depends on vectorizability.  All results are converted back to plain
Python ints, so downstream consumers (heap barriers, B-tree keys,
pickled pages) see exactly what the pure backend produces.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import Any, Sequence

import numpy as np

from ..core.curves import Curve, FlippedCurve
from ..core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
    PredicateSpace,
    QueryBox,
    QuerySpace,
)
from .base import SortRunBuffer
from .pure import PurePythonBackend, PureSortRunBuffer

_U64 = np.uint64
_BYTE = _U64(0xFF)

_EMPTY_RUN = (np.empty(0, dtype=_U64), np.empty(0, dtype=_U64))

_NP_COMPARATORS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class _PagePoints:
    """Lazy point view of a Z-region page's records.

    Vectorized space tests never touch it; only the per-point fallback
    for opaque predicates indexes it, so the point list is not
    materialized on the fast path.
    """

    __slots__ = ("_records",)

    def __init__(self, records: Sequence[Any]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> Any:
        return self._records[index][1][0]


class _BlockPoints:
    """Lazy point view over a whole block of pages (global record index).

    Only the per-point fallback for opaque predicates indexes it; the
    vectorized space tests never materialize points.
    """

    __slots__ = ("_pages", "_offsets")

    def __init__(self, pages: Sequence[Any], offsets: "list[int]") -> None:
        self._pages = pages
        self._offsets = offsets  # cumulative record counts, len(pages) + 1

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, index: int) -> Any:
        position = bisect_right(self._offsets, index) - 1
        record = self._pages[position].records[index - self._offsets[position]]
        return record[1][0]


def _merge_runs(
    a: "tuple[np.ndarray, np.ndarray]", b: "tuple[np.ndarray, np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable merge of two sorted ``(keys, orders)`` runs, ``a`` first.

    ``searchsorted`` computes each element's target slot directly:
    ``a[i]`` lands at ``i + |{b < a[i]}|`` and ``b[j]`` at
    ``j + |{a <= b[j]}|`` — on key ties every ``a`` element precedes
    every ``b`` element, which (with ``a`` the older run, holding the
    smaller arrival orders) is exactly ``(key, order)`` order.  Two
    scatters instead of a comparison loop: the DPG pairwise merge at
    memory speed.
    """
    keys_a, orders_a = a
    keys_b, orders_b = b
    pos_a = np.arange(len(keys_a), dtype=np.intp) + np.searchsorted(
        keys_b, keys_a, side="left"
    )
    pos_b = np.arange(len(keys_b), dtype=np.intp) + np.searchsorted(
        keys_a, keys_b, side="right"
    )
    keys = np.empty(len(keys_a) + len(keys_b), dtype=_U64)
    orders = np.empty_like(keys)
    keys[pos_a] = keys_a
    keys[pos_b] = keys_b
    orders[pos_a] = orders_a
    orders[pos_b] = orders_b
    return keys, orders


class NumPySortRunBuffer(SortRunBuffer):
    """Array-native Tetris cache: ``uint64`` runs, hierarchical merges.

    Runs stay contiguous ``(keys, orders)`` array pairs from push to
    cut — no per-entry Python objects — and a flush consolidates them
    by pairwise :func:`_merge_runs` reduction.  Runs are pushed in
    arrival order, so pairwise-adjacent merging keeps older runs on the
    tie-winning side and the result equals the pure buffer's total
    ``(key, order)`` sort bit for bit.

    Keys that do not fit ``uint64`` (curves wider than 64 bits fall back
    to pure list runs) degrade the whole buffer to
    :class:`~repro.kernels.pure.PureSortRunBuffer` semantics wholesale.
    """

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []
        self._count = 0
        self._fallback: PureSortRunBuffer | None = None

    @staticmethod
    def _as_entries(run: Any) -> "list[list[int]]":
        if isinstance(run, tuple):
            keys, orders = run
            return [
                [key, order]
                for key, order in zip(keys.tolist(), orders.tolist())
            ]
        return run

    def _degrade(self) -> PureSortRunBuffer:
        fallback = PureSortRunBuffer()
        for run in self._runs:
            fallback.push(self._as_entries(run))
        self._runs.clear()
        self._count = 0
        self._fallback = fallback
        return fallback

    def push(self, run: Any) -> None:
        if self._fallback is not None:
            self._fallback.push(self._as_entries(run))
            return
        if not isinstance(run, tuple):
            # a pure-format run: this curve is not vectorizable, degrade
            self._degrade().push(run)
            return
        keys, orders = run
        if len(keys):
            self._runs.append((keys, orders))
            self._count += len(keys)

    def __len__(self) -> int:
        if self._fallback is not None:
            return len(self._fallback)
        return self._count

    def has_key_below(self, barrier: "int | None") -> bool:
        if self._fallback is not None:
            return self._fallback.has_key_below(barrier)
        if not self._runs:
            return False
        if barrier is None:
            return True
        limit = _U64(barrier)
        return any(keys[0] < limit for keys, _ in self._runs)

    def cut(self, barrier: "int | None") -> "list[int]":
        if self._fallback is not None:
            return self._fallback.cut(barrier)
        if not self._runs:
            return []
        if len(self._runs) > 1:
            self._consolidate()
        keys, orders = self._runs[0]
        split = (
            len(keys)
            if barrier is None
            else int(np.searchsorted(keys, _U64(barrier), side="left"))
        )
        if split == 0:
            return []
        emitted = orders[:split].tolist()
        if split == len(keys):
            self._runs.clear()
        else:
            self._runs[0] = (keys[split:], orders[split:])
        self._count -= split
        return emitted

    def _consolidate(self) -> None:
        runs = self._runs
        while len(runs) > 1:
            merged = [
                _merge_runs(runs[index], runs[index + 1])
                for index in range(0, len(runs) - 1, 2)
            ]
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        self._runs = runs


#: batch size from which the vectorized block walk beats the scalar one
#: (measured crossover 16-64 intervals for 27-48 address bits)
_VECTOR_WALK_MIN_INTERVALS = 32


def _interval_blocks(
    total_bits: int, firsts: "np.ndarray", lasts: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """:meth:`Curve.interval_blocks` of every ``[first, last]`` at once.

    Returns ``(positions, sizes, counts)``: block origins and size
    exponents, grouped by interval in the scalar walk's order, and the
    block count per interval.  The greedy walk takes, at each position
    ``p``, the largest aligned block that fits — ``min(lowbit(p),
    2^⌊log2(end - p)⌋)`` — so it runs in two phases, each one
    vectorized step per bit across all intervals: while the next set
    bit of ``p`` still fits, take it (blocks grow); then take the set
    bits of the remaining length from the top (blocks shrink).  Needs
    ``total_bits <= 63`` so the exclusive end fits in ``uint64``.
    """
    one = _U64(1)
    position = firsts.copy()
    end = lasts + one
    # the shrinking phase starts at 2^total_bits: the whole universe
    origins = np.empty((2 * total_bits + 1, len(firsts)), dtype=_U64)
    taken = np.empty((2 * total_bits + 1, len(firsts)), dtype=bool)
    for k in range(total_bits):
        size = one << _U64(k)
        # once a set bit does not fit, no larger one can: growth ends
        take = ((position & size) != 0) & (end - position >= size)
        origins[k] = position
        taken[k] = take
        position += take.astype(_U64) << _U64(k)
    remaining = end - position
    for step, k in enumerate(range(total_bits, -1, -1), start=total_bits):
        take = (remaining >> _U64(k)) & one != 0
        origins[step] = position
        taken[step] = take
        position += take.astype(_U64) << _U64(k)
    exponents = np.concatenate(
        [np.arange(total_bits), np.arange(total_bits, -1, -1)]
    )
    # interval-major: each interval's blocks contiguous, in walk order
    taken_t = taken.T
    sizes = np.broadcast_to(exponents, taken_t.shape)[taken_t]
    return origins.T[taken_t], sizes, taken_t.sum(axis=1)


def _interval_blocks_scalar(
    z_curve: Curve, intervals: Sequence[tuple[int, int]]
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """:func:`_interval_blocks` by the scalar walk (small batches and
    64-bit curves)."""
    positions: list[int] = []
    sizes: list[int] = []
    counts: list[int] = []
    for first, last in intervals:
        filled = len(positions)
        for position, k in z_curve.interval_blocks(first, last):
            positions.append(position)
            sizes.append(k)
        counts.append(len(positions) - filled)
    return (
        np.asarray(positions, dtype=_U64),
        np.asarray(sizes, dtype=np.intp),
        np.asarray(counts, dtype=np.intp),
    )


class _CurveTables:
    """The byte-chunk lookup tables of one curve, as uint64 arrays."""

    __slots__ = ("encode", "decode", "coord_max", "suffix_masks")

    def __init__(self, curve: Curve) -> None:
        #: per dimension: array (chunk_count, 256) of address contributions
        self.encode = [
            np.array(dim_tables, dtype=_U64)
            for dim_tables in curve._encode_tables.tables
        ]
        #: array (chunk_count, 256, dims) of coordinate contributions
        self.decode = np.array(curve._decode_tables.chunks, dtype=_U64)
        self.coord_max = np.array(curve.coord_max, dtype=_U64)
        #: array (total_bits + 1, dims): coordinate bits freed by the k
        #: least significant schedule positions (aligned-block hi corners)
        self.suffix_masks = np.array(curve._suffix_masks, dtype=_U64)


class NumPyBackend(PurePythonBackend):
    """Vectorized batch primitives (inherits pure loops as fallbacks)."""

    name = "numpy"

    def __init__(self) -> None:
        self._tables: "weakref.WeakKeyDictionary[Curve, _CurveTables | None]" = (
            weakref.WeakKeyDictionary()
        )
        # per-QueryBox bound arrays: a scan tests the same box against
        # every page, so the conversion must not repeat per call
        self._boxes: "weakref.WeakKeyDictionary[QueryBox, tuple | None]" = (
            weakref.WeakKeyDictionary()
        )
        # per-pushdown-cover interval arrays, same reasoning as _boxes
        self._intervals: "weakref.WeakKeyDictionary[IntervalUnionSpace, tuple | None]" = (
            weakref.WeakKeyDictionary()
        )
        # columnar cache: the uint64 coordinate matrix of a Z-region
        # page, keyed by the page's mutation version.  Repeated scans
        # over the same relation (the common OLAP pattern) then skip the
        # Python-tuple → array conversion entirely.
        self._columns: "weakref.WeakKeyDictionary[Any, tuple]" = (
            weakref.WeakKeyDictionary()
        )

    def _box_arrays(self, space: QueryBox) -> "tuple | None":
        arrays = self._boxes.get(space, False)
        if arrays is False:
            try:
                arrays = (
                    np.asarray(space.lo, dtype=_U64),
                    np.asarray(space.hi, dtype=_U64),
                )
            except (OverflowError, ValueError, TypeError):
                arrays = None
            self._boxes[space] = arrays
        return arrays

    def _interval_arrays(self, space: IntervalUnionSpace) -> "tuple | None":
        arrays = self._intervals.get(space, False)
        if arrays is False:
            try:
                arrays = (
                    np.asarray(space.starts, dtype=_U64),
                    np.asarray(space.ends, dtype=_U64),
                )
            except (OverflowError, ValueError, TypeError):
                arrays = None
            self._intervals[space] = arrays
        return arrays

    # ------------------------------------------------------------------
    # per-curve table preparation
    # ------------------------------------------------------------------
    def _tables_for(self, curve: Curve) -> _CurveTables | None:
        tables = self._tables.get(curve, False)
        if tables is False:
            # uint64 addresses cap the vectorizable width at 64 bits
            tables = _CurveTables(curve) if curve.total_bits <= 64 else None
            self._tables[curve] = tables
        return tables

    @staticmethod
    def _unwrap(curve: "Curve | FlippedCurve") -> tuple[Curve, frozenset[int]]:
        if isinstance(curve, FlippedCurve):
            return curve.base_curve, curve.flip_dims
        return curve, frozenset()

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_columns(tables: _CurveTables, columns: "np.ndarray") -> "np.ndarray":
        """Addresses of a (n, dims) coordinate array (already reflected)."""
        addresses = np.zeros(len(columns), dtype=_U64)
        for dim, dim_tables in enumerate(tables.encode):
            column = columns[:, dim]
            for chunk in range(dim_tables.shape[0]):
                addresses |= dim_tables[chunk][
                    (column >> _U64(8 * chunk)) & _BYTE
                ]
        return addresses

    @staticmethod
    def _decode_addresses(tables: _CurveTables, packed: "np.ndarray") -> "np.ndarray":
        """(n, dims) coordinate array of an address vector (no reflection)."""
        coords = np.zeros((len(packed), len(tables.coord_max)), dtype=_U64)
        for chunk in range(tables.decode.shape[0]):
            coords |= tables.decode[chunk][(packed >> _U64(8 * chunk)) & _BYTE]
        return coords

    def encode_batch(
        self, curve: "Curve | FlippedCurve", points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        base, flip = self._unwrap(curve)
        tables = self._tables_for(base)
        if tables is None:
            return super().encode_batch(curve, points)
        columns = np.asarray(points, dtype=_U64)
        if flip:
            columns = columns.copy() if columns is points else columns
            for dim in flip:
                columns[:, dim] = tables.coord_max[dim] - columns[:, dim]
        return self._encode_columns(tables, columns).tolist()

    def decode_batch(
        self, curve: "Curve | FlippedCurve", addresses: Sequence[int]
    ) -> list[tuple[int, ...]]:
        if not len(addresses):
            return []
        base, flip = self._unwrap(curve)
        tables = self._tables_for(base)
        if tables is None:
            return super().decode_batch(curve, addresses)
        packed = np.asarray(addresses, dtype=_U64)
        coords = self._decode_addresses(tables, packed)
        for dim in flip:
            coords[:, dim] = tables.coord_max[dim] - coords[:, dim]
        return [tuple(row) for row in coords.tolist()]

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def filter_box_batch(
        self,
        lo: Sequence[int],
        hi: Sequence[int],
        points: Sequence[Sequence[int]],
    ) -> list[int]:
        if not len(points):
            return []
        try:
            columns = np.asarray(points, dtype=_U64)
            lo_arr = np.asarray(lo, dtype=_U64)
            hi_arr = np.asarray(hi, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().filter_box_batch(lo, hi, points)
        mask = ((columns >= lo_arr) & (columns <= hi_arr)).all(axis=1)
        return np.nonzero(mask)[0].tolist()

    def filter_space_batch(
        self, space: QuerySpace, points: Sequence[Sequence[int]]
    ) -> list[int]:
        if not len(points):
            return []
        try:
            columns = np.asarray(points, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().filter_space_batch(space, points)
        mask = np.ones(len(points), dtype=bool)
        self._mask_space(space, columns, points, mask)
        return np.nonzero(mask)[0].tolist()

    def _mask_space(
        self,
        space: QuerySpace,
        columns: "np.ndarray",
        points: Any,
        mask: "np.ndarray",
    ) -> None:
        """AND ``space`` membership into ``mask`` (vectorized per part)."""
        if isinstance(space, QueryBox):
            arrays = self._box_arrays(space)
            if arrays is None:
                self._mask_pointwise(space, points, mask)
                return
            lo_arr, hi_arr = arrays
            mask &= ((columns >= lo_arr) & (columns <= hi_arr)).all(axis=1)
        elif isinstance(space, ComparisonSpace):
            compare = _NP_COMPARATORS[space.op]
            mask &= compare(columns[:, space.left_dim], columns[:, space.right_dim])
        elif isinstance(space, IntervalUnionSpace):
            arrays = self._interval_arrays(space)
            if arrays is None:
                self._mask_pointwise(space, points, mask)
                return
            starts, ends = arrays
            if not starts.size:
                mask[:] = False
                return
            column = columns[:, space.dim]
            # slot of the last interval starting at or below each value;
            # membership iff that interval also ends at or above it
            slots = np.searchsorted(starts, column, side="right") - 1
            inside = slots >= 0
            np.clip(slots, 0, None, out=slots)
            mask &= inside & (column <= ends[slots])
        elif isinstance(space, IntersectionSpace):
            for part in space.parts:
                if not mask.any():
                    return
                self._mask_space(part, columns, points, mask)
        else:
            # opaque predicate (PredicateSpace etc.): per-point test, but
            # only on the still-surviving candidates
            self._mask_pointwise(space, points, mask)

    @staticmethod
    def _mask_pointwise(space: QuerySpace, points: Any, mask: "np.ndarray") -> None:
        contains = space.contains_point
        for index in np.nonzero(mask)[0]:
            if not contains(points[index]):
                mask[index] = False

    def filter_space_page(self, space: QuerySpace, page: Any) -> list[int]:
        """Page-level space filter over the memoized columnar view."""
        records = page.records
        if not records:
            return []
        columns = self._page_columns(page)
        if columns is None:
            return super().filter_space_page(space, page)
        points = _PagePoints(records)  # materialized only by opaque spaces
        mask = np.ones(len(columns), dtype=bool)
        self._mask_space(space, columns, points, mask)
        return np.nonzero(mask)[0].tolist()

    # ------------------------------------------------------------------
    # sorting
    # ------------------------------------------------------------------
    def argsort_keys(
        self, keys: Sequence[Any], *, reverse: bool = False
    ) -> list[int]:
        if not len(keys):
            return []
        try:
            array = np.asarray(keys)
        except (OverflowError, ValueError, TypeError):
            return super().argsort_keys(keys, reverse=reverse)
        if not np.issubdtype(array.dtype, np.integer):
            # floats, strings, objects, mixed tuples: Python semantics win
            return super().argsort_keys(keys, reverse=reverse)
        if reverse:
            # ~k is strictly decreasing in k for any integer dtype, so a
            # stable ascending sort of ~keys is a stable descending sort
            # of keys (ties keep original order, like list.sort).
            array = ~array
        if array.ndim == 1:
            return np.argsort(array, kind="stable").tolist()
        if array.ndim == 2:
            # composite keys: lexsort is stable, last key is primary
            return np.lexsort(array.T[::-1]).tolist()
        return super().argsort_keys(keys, reverse=reverse)

    # ------------------------------------------------------------------
    # fused compound kernels
    # ------------------------------------------------------------------
    def page_entries(
        self,
        curve: "Curve | FlippedCurve",
        space: QuerySpace,
        points: Sequence[Sequence[int]],
        base: int = 0,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Filter + key + sort one page with a single array conversion."""
        if not len(points):
            return 0, [], []
        base_curve, flip = self._unwrap(curve)
        tables = self._tables_for(base_curve)
        if tables is None:
            return super().page_entries(curve, space, points, base)
        try:
            columns = np.asarray(points, dtype=_U64)
        except (OverflowError, ValueError, TypeError):
            return super().page_entries(curve, space, points, base)
        return self._entries_from_columns(
            tables, flip, space, columns, points, base
        )

    def _select_and_key(
        self,
        tables: _CurveTables,
        flip: frozenset[int],
        space: QuerySpace,
        columns: "np.ndarray",
        points: Any,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """Filter + key + stable sort; ``(selected, keys, perm)`` arrays.

        ``selected`` holds the qualifying row indices ascending, ``keys``
        their (reflected) curve addresses in arrival order, and ``perm``
        the stable sort permutation over ``keys``.  ``None`` when nothing
        qualifies.
        """
        mask = np.ones(len(columns), dtype=bool)
        self._mask_space(space, columns, points, mask)
        selected = np.nonzero(mask)[0]
        if not selected.size:
            return None
        chosen = columns[selected]  # fancy index copies: in-place flip is safe
        for dim in flip:
            chosen[:, dim] = tables.coord_max[dim] - chosen[:, dim]
        keys = self._encode_columns(tables, chosen)
        perm = np.argsort(keys, kind="stable")
        return selected, keys, perm

    def _entries_from_columns(
        self,
        tables: _CurveTables,
        flip: frozenset[int],
        space: QuerySpace,
        columns: "np.ndarray",
        points: Any,
        base: int,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Shared tail of :meth:`page_entries` / :meth:`scan_page`."""
        keyed = self._select_and_key(tables, flip, space, columns, points)
        if keyed is None:
            return 0, [], []
        selected, keys, perm = keyed
        entries = np.stack(
            (keys[perm], perm.astype(_U64) + _U64(base)), axis=1
        ).tolist()
        return int(selected.size), selected.tolist(), entries

    def _page_columns(self, page: Any) -> "np.ndarray | None":
        """The page's points as a cached (records, dims) uint64 matrix.

        The page's ``version`` counter stamps the cache entry, so a
        mutated page can never serve stale columns.
        """
        cached = self._columns.get(page)
        version = page.version
        if cached is not None and cached[0] == version:
            return cached[1]
        records = page.records
        try:
            # Z-region records are (z_address, (point, payload)); every
            # stored point passed checked encoding, so the coordinate
            # count and ranges are valid by construction and the flat
            # fill cannot misalign
            flat = np.fromiter(
                (
                    coordinate
                    for _, (point, _) in records
                    for coordinate in point
                ),
                dtype=_U64,
            )
            columns = flat.reshape(len(records), -1) if len(records) else None
        except (OverflowError, ValueError, TypeError):
            columns = None
        try:
            self._columns[page] = (version, columns)
        except TypeError:  # pragma: no cover - non-weakref page stand-ins
            pass
        return columns

    def prime_page_columns(self, page: Any) -> None:
        """Build the page's columnar view ahead of use — the
        coordinator's staging step before handing a slab to workers."""
        if page.records:
            self._page_columns(page)

    def scan_page(
        self,
        curve: "Curve | FlippedCurve",
        space: QuerySpace,
        page: Any,
        base: int = 0,
    ) -> tuple[int, Sequence[int], Sequence[Sequence[int]]]:
        """Fused page kernel over the memoized columnar view."""
        records = page.records
        if not records:
            return 0, [], []
        base_curve, flip = self._unwrap(curve)
        tables = self._tables_for(base_curve)
        if tables is None:
            return super().scan_page(curve, space, page, base)
        columns = self._page_columns(page)
        if columns is None or columns.shape[1] != base_curve.dims:
            return super().scan_page(curve, space, page, base)
        points = _PagePoints(records)  # materialized only by opaque spaces
        return self._entries_from_columns(
            tables, flip, space, columns, points, base
        )

    def scan_page_run(
        self,
        curve: "Curve | FlippedCurve",
        space: QuerySpace,
        page: Any,
        base: int = 0,
    ) -> tuple[int, Sequence[int], Any]:
        """:meth:`scan_page` whose entries stay ``uint64`` array pairs."""
        records = page.records
        if not records:
            return 0, [], _EMPTY_RUN
        base_curve, flip = self._unwrap(curve)
        tables = self._tables_for(base_curve)
        if tables is None:
            return super().scan_page_run(curve, space, page, base)
        columns = self._page_columns(page)
        if columns is None or columns.shape[1] != base_curve.dims:
            return super().scan_page_run(curve, space, page, base)
        points = _PagePoints(records)
        keyed = self._select_and_key(tables, flip, space, columns, points)
        if keyed is None:
            return 0, [], _EMPTY_RUN
        selected, keys, perm = keyed
        run = (keys[perm], perm.astype(_U64) + _U64(base))
        return int(selected.size), selected.tolist(), run

    def make_run_buffer(self) -> SortRunBuffer:
        return NumPySortRunBuffer()

    def scan_block(
        self,
        curve: "Curve | FlippedCurve",
        space: QuerySpace,
        pages: Sequence[Any],
    ) -> tuple[list[Sequence[int]], Sequence[int]]:
        """Whole-slab fused kernel: one concatenate + filter + key +
        stable argsort over every page of the block.

        The big-array calls here (compare, gather, table lookups,
        argsort) release the GIL, which is what lets the thread executor
        scale; per-page kernels never get arrays large enough for the
        release to beat the dispatch overhead.
        """
        base_curve, flip = self._unwrap(curve)
        tables = self._tables_for(base_curve)
        if tables is None:
            return super().scan_block(curve, space, pages)
        page_columns: "list[np.ndarray]" = []
        offsets = [0]
        for page in pages:
            records = page.records
            if not records:
                offsets.append(offsets[-1])
                continue
            columns = self._page_columns(page)
            if columns is None or columns.shape[1] != base_curve.dims:
                return super().scan_block(curve, space, pages)
            page_columns.append(columns)
            offsets.append(offsets[-1] + len(columns))
        if not page_columns:
            return [[] for _ in pages], []
        block = (
            page_columns[0]
            if len(page_columns) == 1
            else np.concatenate(page_columns, axis=0)
        )
        points = _BlockPoints(pages, offsets)
        keyed = self._select_and_key(tables, flip, space, block, points)
        if keyed is None:
            return [[] for _ in pages], []
        selected, keys, perm = keyed
        # split the ascending global selection back into per-page slices
        bounds = np.searchsorted(selected, np.asarray(offsets, dtype=np.intp))
        selected_per_page = [
            (selected[bounds[i] : bounds[i + 1]] - offsets[i]).tolist()
            for i in range(len(pages))
        ]
        return selected_per_page, perm.tolist()

    def merge_sorted_keys(
        self,
        keys_a: Sequence[Any],
        keys_b: Sequence[Any],
        *,
        reverse: bool = False,
    ) -> list[int]:
        if not len(keys_a) or not len(keys_b):
            return list(range(len(keys_a) + len(keys_b)))
        try:
            array_a = np.asarray(keys_a)
            array_b = np.asarray(keys_b)
        except (OverflowError, ValueError, TypeError):
            return super().merge_sorted_keys(keys_a, keys_b, reverse=reverse)
        if (
            array_a.ndim != 1
            or array_b.ndim != 1
            or not np.issubdtype(array_a.dtype, np.integer)
            or array_a.dtype != array_b.dtype
        ):
            return super().merge_sorted_keys(keys_a, keys_b, reverse=reverse)
        if reverse:
            # same ~k trick as argsort_keys: ascending on ~keys is
            # descending on keys with identical tie behaviour
            array_a = ~array_a
            array_b = ~array_b
        length_a = len(array_a)
        pos_a = np.arange(length_a, dtype=np.intp) + np.searchsorted(
            array_b, array_a, side="left"
        )
        pos_b = np.arange(len(array_b), dtype=np.intp) + np.searchsorted(
            array_a, array_b, side="right"
        )
        permutation = np.empty(length_a + len(array_b), dtype=np.intp)
        permutation[pos_a] = np.arange(length_a, dtype=np.intp)
        permutation[pos_b] = np.arange(
            length_a, length_a + len(array_b), dtype=np.intp
        )
        return permutation.tolist()

    def region_min_keys(
        self,
        z_curve: Curve,
        sort_curve: "Curve | FlippedCurve",
        intervals: Sequence[tuple[int, int]],
        lo: Sequence[int],
        hi: Sequence[int],
    ) -> "list[int | None]":
        """Batched region keying: decode, clamp and encode all aligned
        blocks of all intervals in one vectorized pass."""
        if not intervals:
            return []
        base_sort, flip = self._unwrap(sort_curve)
        z_tables = self._tables_for(z_curve)
        sort_tables = self._tables_for(base_sort)
        if z_tables is None or sort_tables is None:
            return super().region_min_keys(z_curve, sort_curve, intervals, lo, hi)

        blocks = self._aligned_blocks(z_curve, z_tables, intervals)
        if blocks is None:
            return super().region_min_keys(z_curve, sort_curve, intervals, lo, hi)
        los, his, offsets = blocks
        lo_arr = np.asarray(lo, dtype=_U64)
        hi_arr = np.asarray(hi, dtype=_U64)
        clamped_lo = np.maximum(los, lo_arr)
        clamped_hi = np.minimum(his, hi_arr)
        valid = (clamped_lo <= clamped_hi).all(axis=1)

        # the minimal sort-curve address of a box sits at the corner that
        # takes hi in flipped dimensions; encoding through the base curve
        # reflects those coordinates (coord_max - hi), lo elsewhere
        if flip:
            corners = clamped_lo.copy()
            for dim in flip:
                corners[:, dim] = sort_tables.coord_max[dim] - clamped_hi[:, dim]
        else:
            corners = clamped_lo
        keys = self._encode_columns(sort_tables, corners)
        keys[~valid] = np.iinfo(_U64).max  # never the min unless it is real
        minima = np.minimum.reduceat(keys, offsets)
        any_valid = np.bitwise_or.reduceat(valid, offsets)
        return [
            int(key) if ok else None
            for key, ok in zip(minima.tolist(), any_valid.tolist())
        ]

    def _aligned_blocks(
        self,
        z_curve: Curve, z_tables: _CurveTables, intervals: Sequence[tuple[int, int]]
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """``(los, his, offsets)`` of the aligned blocks of all intervals.

        ``los``/``his`` are the (blocks, dims) corner arrays of every
        block in interval order, and ``offsets[i]`` is interval ``i``'s
        first block — the segment starts a ``reduceat`` per interval
        needs.  The blocks are :meth:`Curve.interval_blocks
        <repro.core.curves.Curve.interval_blocks>`'s, enumerated for all
        intervals at once (see :func:`_interval_blocks`) and decoded in
        one pass.  ``None`` when an interval is empty (a segment reduce
        needs at least one block each) or out of the curve's range.
        """
        try:
            bounds = np.array(intervals, dtype=_U64).reshape(-1, 2)
        except (OverflowError, ValueError, TypeError):
            return None
        firsts, lasts = bounds[:, 0], bounds[:, 1]
        if (firsts > lasts).any() or (lasts > _U64(z_curve.address_max)).any():
            return None
        # the vectorized walk costs ~2 * total_bits array steps whatever
        # the batch size, so few intervals walk faster one by one; and
        # its exclusive end must fit in uint64
        if len(intervals) < _VECTOR_WALK_MIN_INTERVALS or z_curve.total_bits >= 64:
            positions, sizes, counts = _interval_blocks_scalar(z_curve, intervals)
        else:
            positions, sizes, counts = _interval_blocks(
                z_curve.total_bits, firsts, lasts
            )
        los = self._decode_addresses(z_tables, positions)
        his = los | z_tables.suffix_masks[sizes]
        offsets = np.zeros(len(counts), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        return los, his, offsets

    def regions_intersect(
        self,
        z_curve: Curve,
        intervals: Sequence[tuple[int, int]],
        space: QuerySpace,
    ) -> "list[bool]":
        """Batched region geometry: decode all aligned blocks once, test
        them against the space's geometry, OR the answers per region."""
        if not intervals:
            return []
        z_tables = self._tables_for(z_curve)
        blocks = (
            None if z_tables is None
            else self._aligned_blocks(z_curve, z_tables, intervals)
        )
        if blocks is None:
            return super().regions_intersect(z_curve, intervals, space)
        los, his, offsets = blocks
        meets = self._meets_boxes(space, los, his)
        if meets is None:  # opaque geometry: the per-region reference
            return super().regions_intersect(z_curve, intervals, space)
        return np.logical_or.reduceat(meets, offsets).tolist()

    def _meets_boxes(
        self, space: QuerySpace, los: "np.ndarray", his: "np.ndarray"
    ) -> "np.ndarray | None":
        """``space.intersects_box(lo, hi)`` for every (lo, hi) row pair,
        vectorized per space type; ``None`` for a type it cannot lift."""
        if isinstance(space, QueryBox):
            arrays = self._box_arrays(space)
            if arrays is None:
                return None
            lo_arr, hi_arr = arrays
            return ((los <= hi_arr) & (lo_arr <= his)).all(axis=1)
        if isinstance(space, ComparisonSpace):
            # the most favourable corner decides (see intersects_box)
            compare = _NP_COMPARATORS[space.op]
            left, right = space.left_dim, space.right_dim
            if space.op in ("<", "<="):
                return compare(los[:, left], his[:, right])
            return compare(his[:, left], los[:, right])
        if isinstance(space, IntervalUnionSpace):
            arrays = self._interval_arrays(space)
            if arrays is None:
                return None
            starts, ends = arrays
            if not starts.size:
                return np.zeros(len(los), dtype=bool)
            # the first interval ending at or after each box's low end
            # either starts within the box's range or nothing does
            slots = np.searchsorted(ends, los[:, space.dim], side="left")
            inside = slots < starts.size
            np.clip(slots, 0, starts.size - 1, out=slots)
            return inside & (starts[slots] <= his[:, space.dim])
        if isinstance(space, IntersectionSpace):
            meets = np.ones(len(los), dtype=bool)
            for part in space.parts:
                part_meets = self._meets_boxes(part, los, his)
                if part_meets is None:
                    return None
                meets &= part_meets
            return meets
        if isinstance(space, PredicateSpace):
            return np.ones(len(los), dtype=bool)  # no geometric knowledge
        return None

"""The UB-Tree: a B+-tree over Z-addresses whose leaves are Z-regions.

Section 3.3: "The UB-Tree partitions the multidimensional space into
Z-regions, each of which is mapped onto one disk page."  We follow the
paper's own prototype strategy — the UB-Tree is emulated on a B*-Tree:
tuples are keyed by their Z-address, every leaf page is one Z-region, and
the region boundaries ``[α : β]`` are the separator keys surrounding the
leaf.  Insertion splits a full region at the median Z-address (the
paper's ``γ`` with half the tuples on either side); point queries are one
tree descent; the range query walks the regions overlapping a query box
via the BIGMIN ("getNextZ") primitive, touching each qualifying page
exactly once.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from .. import invariants, kernels
from ..btree.bptree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.page import Page
from ..storage.prefetch import LookaheadCursor, SweepPrefetcher
from ..storage.wal import active_wal
from .query_space import QueryBox, QuerySpace, box_is_empty
from .region import ZRegion
from .zorder import ZSpace


class UBTree:
    """A multidimensionally clustered relation.

    Parameters
    ----------
    buffer:
        Buffer pool of the simulated disk.
    space:
        The indexed universe (dimensions and bits per attribute).
    page_capacity:
        Tuples per Z-region page.
    category:
        I/O statistics bucket for data page accesses.
    """

    def __init__(
        self,
        buffer: BufferPool,
        space: ZSpace,
        page_capacity: int,
        fanout: int = 128,
        category: str = "data",
    ) -> None:
        self.space = space
        self.category = category
        self.page_capacity = page_capacity
        self.tree = BPlusTree(
            buffer, leaf_capacity=page_capacity, fanout=fanout, category=category
        )

    # ------------------------------------------------------------------
    # maintenance operations (Section 3.3: logarithmic insert/point/delete)
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[int], payload: Any = None) -> None:
        """Insert a tuple located at ``point`` carrying ``payload``."""
        z_address = self.space.z_address(point)
        if invariants.enabled():
            invariants.check(
                self.space.z.decode(z_address) == tuple(point),
                f"Z-address {z_address} does not decode back to {point}; "
                "curve encode/decode are no longer inverses",
            )
        self.tree.insert(z_address, (tuple(point), payload))

    def load(self, rows: Iterable[tuple[Sequence[int], Any]]) -> None:
        for point, payload in rows:
            self.insert(point, payload)

    def bulk_load(
        self, rows: Iterable[tuple[Sequence[int], Any]], fill: float = 1.0
    ) -> None:
        """Build the Z-region partitioning bottom-up from a full dataset.

        Tuples are sorted by Z-address and packed into region pages at
        the requested fill factor — the initial-load path a production
        UB-Tree would use, yielding fewer, fuller Z-regions than
        insert-driven splitting.  Requires an empty tree.
        """
        materialized = [(tuple(point), payload) for point, payload in rows]
        points = [point for point, _ in materialized]
        kernel = kernels.get_backend()
        # bulk load is an API boundary: validate the whole column at once
        # (a box test against the universe) before the unchecked encode
        dims = self.space.dims
        if any(len(point) != dims for point in points):
            bad = next(p for p in points if len(p) != dims)
            raise ValueError(f"expected {dims} coordinates, got {len(bad)}")
        lo, hi = self.space.universe_box()
        if len(kernel.filter_box_batch(lo, hi, points)) != len(points):
            for point in points:  # re-raise with the scalar error message
                self.space.z.encode(point)
        # one batch encode + one stable key sort for the whole dataset
        # (payloads need not be comparable, so only addresses are keyed)
        addresses = kernel.encode_batch(self.space.z, points)
        pairs = [
            (addresses[index], materialized[index])
            for index in kernel.argsort_keys(addresses)
        ]
        self.tree.bulk_load(pairs, fill=fill)
        # with a WAL armed, torn leaves are a legal on-disk state until
        # recovery has replayed the committed images — validate after
        # recover() (the chaos harness does) rather than inline here
        if invariants.enabled() and active_wal(self.tree.disk) is None:
            invariants.validate_ubtree(self)

    def point_query(self, point: Sequence[int]) -> list[Any]:
        """Payloads of all tuples stored exactly at ``point``."""
        z_address = self.space.z_address(point)
        return [
            payload
            for stored, payload in self.tree.search(z_address)
            if stored == tuple(point)
        ]

    def delete(self, point: Sequence[int], payload: Any = None) -> bool:
        z_address = self.space.z_address(point)
        if payload is None:
            return self.tree.delete(z_address)
        return self.tree.delete(z_address, (tuple(point), payload))

    def __len__(self) -> int:
        return self.tree.record_count

    @property
    def region_count(self) -> int:
        return self.tree.leaf_count

    @property
    def page_count(self) -> int:
        return self.tree.leaf_count

    # ------------------------------------------------------------------
    # region access
    # ------------------------------------------------------------------
    def region_for(
        self, z_address: int, *, charge: bool = True
    ) -> tuple[ZRegion, Page]:
        """The Z-region containing ``z_address`` plus its page.

        One B*-Tree descent; the data page access is priced as a random
        read when ``charge`` is set (the Tetris algorithm's
        ``retrieveRegion``).
        """
        leaf, low, high = self.tree.leaf_for(z_address, charge=charge)
        first = 0 if low is None else low + 1
        last = self.space.address_max if high is None else high
        return ZRegion(first, last, leaf.page_id), leaf

    def regions(self) -> Iterator[ZRegion]:
        """All Z-regions in Z-order (unpriced; used by tests and viz).

        Boundaries come from the separator keys via :meth:`region_for`,
        so they agree exactly with what the sweep algorithms see.
        """
        z_address = 0
        while True:
            region, _ = self.region_for(z_address, charge=False)
            yield region
            if region.last >= self.space.address_max:
                return
            z_address = region.last + 1

    def regions_overlapping(
        self, space: QuerySpace, *, prune: bool = True
    ) -> Iterator[ZRegion]:
        """Z-regions intersecting ``space``'s bounding box, in Z-order.

        Each region costs one unpriced descent (index levels only); data
        pages are *not* read.  With ``prune`` set, regions whose geometry
        provably misses a non-rectangular ``space`` are filtered out.
        """
        box = space.bounding_box()
        if box is None:
            box = self.space.universe_box()
        if box_is_empty(box):
            return
        lo, hi = box
        curve = self.space.z
        z_address: int | None = curve.encode(lo)
        last_address = curve.encode(hi)
        while z_address is not None and z_address <= last_address:
            region, _ = self.region_for(z_address, charge=False)
            if not prune or isinstance(space, QueryBox) or region.intersects(curve, space):
                yield region
            z_address = curve.next_in_box(region.last + 1, lo, hi)

    # ------------------------------------------------------------------
    # the range query (Section 5.3 / standard UB-Tree algorithm)
    # ------------------------------------------------------------------
    def range_query(self, space: QuerySpace) -> Iterator[tuple[tuple[int, ...], Any]]:
        """All tuples inside ``space``; each overlapping page read once.

        This is the multi-attribute restriction algorithm used for TPC-D
        Q6: jump along the Z-curve with BIGMIN, read every overlapping
        region page once (a random access each), and filter the page's
        tuples against the exact predicate.  Filtering runs through the
        batch kernel layer (one ``filter_space_page`` call per page), so
        the vectorized backend evaluates the predicate over the whole
        page at once instead of tuple at a time.  With an I/O scheduler
        armed on the buffer pool, the projected next regions are
        prefetched ahead of the cursor so their transfers overlap.
        """
        buffer = self.tree.buffer
        kernel = kernels.get_backend()
        regions = LookaheadCursor(self.regions_overlapping(space))
        prefetcher = SweepPrefetcher.for_pool(buffer, category=self.category)
        try:
            for region in regions:
                if prefetcher is not None:
                    prefetcher.top_up(
                        ahead.page_id for ahead in regions.peek(prefetcher.depth)
                    )
                page = buffer.get(region.page_id, category=self.category)
                if prefetcher is not None:
                    prefetcher.mark_consumed(region.page_id)
                records = page.records
                for index in kernel.filter_space_page(space, page):
                    point, payload = records[index][1]
                    yield point, payload
        finally:
            if prefetcher is not None:
                prefetcher.close()

    def range_count(self, space: QuerySpace) -> int:
        """Number of qualifying tuples (convenience for tests)."""
        return sum(1 for _ in self.range_query(space))

    def check_invariants(self) -> None:
        """Structural validation plus region/page bijection.

        Delegates to :func:`repro.invariants.validate_ubtree`; runs
        unconditionally — this is the explicit debug entry point,
        independent of the ``REPRO_CHECKS`` gate.
        """
        invariants.validate_ubtree(self)

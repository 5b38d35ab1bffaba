"""Traced run: spans and counters at the engine's layer boundaries.

Nothing here lives in the engine.  :class:`Tracer` wraps the public
entry points of each layer from the outside (class attributes, module
attributes, the active kernel backend's methods) for the duration of a
traced run and restores them afterwards.

Every wrapped call pushes a *frame* tagged with a layer key.  Wall time
between two frame boundaries is charged to the innermost frame (its
*self* time); a layer's *busy* time is the inclusive time of its
outermost frames.  Coarse boundaries (an op, an operator or scan
iterator, a transaction, a sharded scan, a table build) also record a
:class:`Span` — name, layer, start, end, parent, op id, busy seconds and
the simulated seconds charged below it.  Iterator spans are one per
instance, with busy time accumulated across ``next()`` calls.

Simulated time is charged where the clock moves: around every
:class:`~repro.storage.disk.SimulatedDisk` call that prices I/O and
every :class:`~repro.storage.scheduler.IOScheduler` call (the scheduler
rewinds and re-advances the disk clock, so it is charged net).  The
delta is taken as an exact :class:`~fractions.Fraction` of two float
clock readings and charged to the innermost non-device frame, the layer
that issued the I/O.  Per-op sums therefore telescope exactly to the
op's :class:`~repro.storage.stats.IOStats` delta, which the harness
checks for every op.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Any, Callable, Iterator

#: layers whose frames move the simulated clock themselves
CLOCK_LAYERS = frozenset({"disk", "scheduler"})

#: kernel backend entry points (see repro.kernels.base.KernelBackend)
KERNEL_METHODS = (
    "encode_batch",
    "decode_batch",
    "filter_box_batch",
    "filter_space_batch",
    "filter_space_page",
    "argsort_keys",
    "page_entries",
    "scan_page",
    "scan_page_run",
    "scan_block",
    "merge_sorted_keys",
    "region_min_keys",
)
RUN_BUFFER_METHODS = ("push", "has_key_below", "cut")


class Span:
    """One traced boundary crossing (or one iterator instance)."""

    __slots__ = (
        "id", "name", "layer", "parent", "op", "start", "end", "busy", "sim", "rows",
    )

    def __init__(self, span_id: int, name: str, layer: str, parent: int | None,
                 op: str, start: float) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.busy = 0.0
        self.sim = Fraction(0)
        self.rows = 0

    def as_dict(self, origin: float) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "op": self.op,
            "start_s": self.start - origin,
            "end_s": self.end - origin,
            "busy_s": self.busy,
            "sim_s": float(self.sim),
            "rows": self.rows,
        }


class _Frame:
    __slots__ = ("layer", "span")

    def __init__(self, layer: str, span: Span | None) -> None:
        self.layer = layer
        self.span = span


class PhaseCounters:
    """Everything the tracer accumulates for one phase (set-up or ops)."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_wall: defaultdict[str, float] = defaultdict(float)
        self.sim: defaultdict[str, Fraction] = defaultdict(Fraction)
        #: (issuing layer, "read"/"write", category) -> pages
        self.pages: Counter[tuple[str, str, str]] = Counter()
        self.read_seeks = 0
        self.device_sim = Fraction(0)
        self.buffer_misses = 0
        self.rows: Counter[str] = Counter()
        self.join_rows_in = 0
        self.join_rows_out = 0


class Tracer:
    """Installs the layer wrappers and accumulates spans and counters.

    ``full=False`` installs only the instance registry (TetrisScan and
    ExternalMergeSort constructors, pushdown covers) that the untraced
    reference pass of a traced run needs to compare algorithm counters.
    """

    def __init__(self, *, full: bool = True) -> None:
        self.full = full
        self.phases: dict[str, PhaseCounters] = {}
        self.phase = self._phase("setup")
        self.spans: list[Span] = []
        self.stack: list[_Frame] = []
        self.depth: Counter[str] = Counter()
        self.entered: dict[str, float] = {}
        self.clock_depth = 0
        self.origin = time.perf_counter()
        self.last = self.origin
        self.op = "setup"
        self.op_sim = Fraction(0)
        self.op_pages: Counter[tuple[str, str]] = Counter()
        #: algorithm objects created during the current op
        self.tetris_scans: list[Any] = []
        self.sorts: list[Any] = []
        self.covers: list[Any] = []
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # phases and ops
    # ------------------------------------------------------------------
    def _phase(self, name: str) -> PhaseCounters:
        if name not in self.phases:
            self.phases[name] = PhaseCounters()
        return self.phases[name]

    def set_phase(self, name: str) -> None:
        self.phase = self._phase(name)

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.op_sim = Fraction(0)
        self.op_pages = Counter()
        self.tetris_scans = []
        self.sorts = []
        self.covers = []
        if self.full:
            self.push("op", span_name=op_id)

    def end_op(self) -> None:
        if self.full:
            self.pop()
        self.op = "between-ops"

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _enter(self, frame: _Frame, now: float) -> None:
        if self.stack:
            self.phase.self_wall[self.stack[-1].layer] += now - self.last
        self.last = now
        self.stack.append(frame)
        layer = frame.layer
        if self.depth[layer] == 0:
            self.entered[layer] = now
        self.depth[layer] += 1

    def _leave(self, now: float) -> _Frame:
        frame = self.stack.pop()
        layer = frame.layer
        self.phase.self_wall[layer] += now - self.last
        self.last = now
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.phase.busy[layer] += now - self.entered[layer]
        return frame

    def push(self, layer: str, span_name: str | None = None) -> _Frame:
        now = time.perf_counter()
        span = None
        if span_name is not None:
            parent = next(
                (f.span.id for f in reversed(self.stack) if f.span is not None), None
            )
            span = Span(len(self.spans), span_name, layer, parent, self.op, now)
            self.spans.append(span)
        frame = _Frame(layer, span)
        self._enter(frame, now)
        self.phase.calls[layer] += 1
        return frame

    def pop(self) -> None:
        now = time.perf_counter()
        frame = self._leave(now)
        if frame.span is not None:
            frame.span.end = now
            frame.span.busy += now - frame.span.start

    def _issuer(self) -> str:
        for frame in reversed(self.stack):
            if frame.layer not in CLOCK_LAYERS:
                return frame.layer
        return "harness"

    def charge_sim(self, delta: Fraction) -> None:
        """Charge simulated seconds to the layer that issued the I/O."""
        issuer = self._issuer()
        self.phase.sim[issuer] += delta
        self.phase.device_sim += delta
        self.op_sim += delta
        for frame in reversed(self.stack):
            if frame.span is not None:
                frame.span.sim += delta
                break

    def count_pages(self, kind: str, category: str) -> None:
        self.phase.pages[(self._issuer(), kind, category)] += 1
        self.op_pages[(kind, category)] += 1

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def call(self, layer: str, fn: Callable, *, span: str | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            tracer.push(layer, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop()

        traced.__wrapped__ = fn
        return traced

    def clocked(self, layer: str, fn: Callable, disk_of: Callable[[Any], Any]) -> Callable:
        """A device-level method: charges its exact clock delta."""
        tracer = self

        def traced(target, *args, **kwargs):
            outer = tracer.clock_depth == 0
            disk = disk_of(target)
            before = disk.stats.time
            tracer.clock_depth += 1
            tracer.push(layer)
            try:
                return fn(target, *args, **kwargs)
            finally:
                tracer.pop()
                tracer.clock_depth -= 1
                after = disk.stats.time
                if outer and after != before:
                    tracer.charge_sim(Fraction(after) - Fraction(before))

        traced.__wrapped__ = fn
        return traced

    def iterate(self, layer: str, name: str, start: Callable[[], Any],
                on_row: Callable[[Any], None] | None = None) -> Iterator[Any]:
        """One span per iterator instance; busy accumulates across next()."""
        frame = self.push(layer, name)
        try:
            inner = iter(start())
        finally:
            self.pop()
        return self._drain(frame, inner, on_row)

    def _drain(self, frame: _Frame, inner: Iterator[Any],
               on_row: Callable[[Any], None] | None) -> Iterator[Any]:
        span = frame.span
        rows = self.phase.rows
        while True:
            now = time.perf_counter()
            self._enter(frame, now)
            try:
                row = next(inner)
            except StopIteration:
                return
            finally:
                end = time.perf_counter()
                self._leave(end)
                span.busy += end - now
                span.end = end
            span.rows += 1
            rows[frame.layer] += 1
            if on_row is not None:
                on_row(row)
            yield row

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._restore.append((owner, name, getattr(owner, name), had))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        from repro.core import tetris as tetris_mod
        from repro.planner import pushdown as pushdown_mod
        from repro.relational.operators import sort as sort_mod
        from repro.tpcd import plans as plans_mod

        tracer = self
        init_scan = tetris_mod.TetrisScan.__init__
        init_sort = sort_mod.ExternalMergeSort.__init__

        def scan_init(scan, *args, **kwargs):
            init_scan(scan, *args, **kwargs)
            tracer.tetris_scans.append(scan)

        def sort_init(sort, *args, **kwargs):
            init_sort(sort, *args, **kwargs)
            tracer.sorts.append(sort)

        self._set(tetris_mod.TetrisScan, "__init__", scan_init)
        self._set(sort_mod.ExternalMergeSort, "__init__", sort_init)

        cover_fn = pushdown_mod.pushdown_space

        def cover(*args, **kwargs):
            if tracer.full:
                tracer.push("pushdown", "pushdown_space")
            try:
                space, key_cover = cover_fn(*args, **kwargs)
            finally:
                if tracer.full:
                    tracer.pop()
            tracer.covers.append(key_cover)
            return space, key_cover

        self._set(pushdown_mod, "pushdown_space", cover)
        self._set(plans_mod, "pushdown_space", cover)
        if self.full:
            self._install_layers()
        return self

    def _install_layers(self) -> None:
        from repro import kernels, tpcd
        from repro.core.tetris import TetrisScan
        from repro.core.ubtree import UBTree
        from repro.invariants.sanitizer import TrackedLock
        from repro.relational import operators as ops
        from repro.relational.schema import Schema
        from repro.relational.table import UBTable
        from repro.shard import coordinator as shard_mod
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import SimulatedDisk
        from repro.storage.scheduler import IOScheduler
        from repro.storage.wal import WriteAheadLog
        from repro.tpcd import datagen, plans
        from repro.txn.coordinator import TransactionCoordinator
        from repro.txn.log import DecisionLog

        tracer = self

        # tpcd: generator, streams, deterministic shuffles
        generate = datagen.generate

        def traced_generate(*args, **kwargs):
            tracer.push("tpcd", "tpcd.generate")
            try:
                data = generate(*args, **kwargs)
            finally:
                tracer.pop()
            tracer.phase.rows["tpcd"] += (
                len(data.customers) + len(data.orders) + len(data.lineitems)
            )
            return data

        for module in (datagen, tpcd):
            self._set(module, "generate", traced_generate)
        for stream in ("stream_customers", "stream_orders", "stream_lineitems"):
            fn = getattr(datagen, stream)

            def traced_stream(*args, _fn=fn, _name=stream, **kwargs):
                return tracer.iterate("tpcd", f"tpcd.{_name}", lambda: _fn(*args, **kwargs))

            for module in (datagen, tpcd):
                self._set(module, stream, traced_stream)
        shuffle = self.call("tpcd", datagen.shuffled)
        for module in (datagen, tpcd, plans):
            self._set(module, "shuffled", shuffle)

        # key encoding, index build and insert
        self._set(Schema, "encode_point", self.call("schema", Schema.encode_point))
        self._set(UBTable, "load", self.call("ubtree.build", UBTable.load, span="UBTable.load"))
        self._set(UBTable, "bulk_load",
                  self.call("ubtree.build", UBTable.bulk_load, span="UBTable.bulk_load"))
        self._set(UBTree, "bulk_load", self.call("ubtree.build", UBTree.bulk_load))
        self._set(UBTree, "insert", self.call("ubtree.insert", UBTree.insert))

        # Tetris sweep: one span per scan instance
        scan_iter = TetrisScan.__iter__

        def traced_scan_iter(scan):
            return tracer.iterate("tetris", "TetrisScan", lambda: scan_iter(scan))

        self._set(TetrisScan, "__iter__", traced_scan_iter)

        # kernels: the active backend's entry points and its run buffers
        backend = kernels.get_backend()
        for name in KERNEL_METHODS:
            self._set(backend, name, self.call("kernels", getattr(backend, name)))
        make_run_buffer = backend.make_run_buffer

        def traced_make_run_buffer():
            run_buffer = make_run_buffer()
            for method in RUN_BUFFER_METHODS:
                setattr(run_buffer, method,
                        tracer.call("kernels", getattr(run_buffer, method)))
            return run_buffer

        self._set(backend, "make_run_buffer", traced_make_run_buffer)

        # buffer pool
        get = BufferPool.get

        def traced_get(pool, *args, **kwargs):
            misses = pool.misses
            tracer.push("buffer")
            try:
                return get(pool, *args, **kwargs)
            finally:
                tracer.pop()
                tracer.phase.buffer_misses += pool.misses - misses

        self._set(BufferPool, "get", traced_get)
        self._set(BufferPool, "prefetch", self.call("prefetch", BufferPool.prefetch))

        # devices: exact clock deltas, page counts by category
        read = SimulatedDisk.read
        write = SimulatedDisk.write

        def counted_read(disk, page_id, *, sequential=False, category="data", charge=True):
            bucket = disk.stats.categories.get(category)
            seeks = bucket.read_seeks if bucket is not None else 0
            page = read(disk, page_id, sequential=sequential, category=category, charge=charge)
            if charge:
                tracer.count_pages("read", category)
                tracer.phase.read_seeks += disk.stats.categories[category].read_seeks - seeks
            return page

        def counted_write(disk, page, *, sequential=False, category="data"):
            write(disk, page, sequential=sequential, category=category)
            tracer.count_pages("write", category)

        itself = lambda target: target  # noqa: E731
        self._set(SimulatedDisk, "read", self.clocked("disk", counted_read, itself))
        self._set(SimulatedDisk, "write", self.clocked("disk", counted_write, itself))
        self._set(SimulatedDisk, "advance_clock",
                  self.clocked("disk", SimulatedDisk.advance_clock, itself))
        scheduler_disk = lambda target: target.disk  # noqa: E731
        for name in ("read", "submit", "claim", "cancel", "cancel_all", "advance_clock"):
            self._set(IOScheduler, name,
                      self.clocked("scheduler", getattr(IOScheduler, name), scheduler_disk))

        # relational operators: one span per iterator instance
        def operator_iter(cls, layer, on_row=None, around=None):
            original = cls.__iter__

            def traced_iter(op):
                start = (lambda: around(op, original)) if around else (lambda: original(op))
                return tracer.iterate(layer, cls.__name__, start, on_row)

            self._set(cls, "__iter__", traced_iter)

        for cls in (ops.ExternalMergeSort, ops.InMemorySort):
            operator_iter(cls, "sort")
        for cls in (ops.SortedGroupBy, ops.ScalarAggregate):
            operator_iter(cls, "group")
        for cls in (ops.FullTableScan, ops.UBRangeScan, ops.IOTScan, ops.TetrisOperator):
            operator_iter(cls, "scan")

        def count_join_out(_row):
            tracer.phase.join_rows_out += 1

        def with_counted_inputs(names):
            def around(op, original):
                saved = {name: getattr(op, name) for name in names}
                for name, value in saved.items():
                    setattr(op, name, _CountingInput(value, tracer))
                return _restoring(original(op), op, saved)
            return around

        operator_iter(ops.MergeJoin, "join", count_join_out, with_counted_inputs(("left", "right")))
        operator_iter(ops.MergeSemiJoin, "join", count_join_out,
                      with_counted_inputs(("left", "right")))
        operator_iter(ops.HashJoin, "join", count_join_out, with_counted_inputs(("build", "probe")))

        # shard coordinator, 2PC, WAL
        SDB = shard_mod.ShardedDatabase
        self._set(SDB, "load_participant",
                  self.call("shard.load", SDB.load_participant, span="shard.load_participant"))
        self._set(SDB, "sorted_scan", self.call("shard.scan", SDB.sorted_scan, span="shard.sorted_scan"))
        self._set(shard_mod, "merge_shard_streams",
                  self.call("shard.merge", shard_mod.merge_shard_streams, span="shard.merge"))
        for name in ("prepare_participant", "commit_participant"):
            self._set(SDB, name, self.call("txn.commit", getattr(SDB, name), span=f"shard.{name}"))
        for name in ("log_prepare", "log_decision", "log_ack"):
            self._set(DecisionLog, name, self.call("txn.log", getattr(DecisionLog, name)))
        for name in ("atomic_load", "atomic_insert"):
            self._set(TransactionCoordinator, name,
                      self.call("txn", getattr(TransactionCoordinator, name), span=f"txn.{name}"))
        for name in ("begin", "commit", "prepare", "commit_prepared", "abort_prepared",
                     "log_alloc", "touch", "log_image", "log_free"):
            self._set(WriteAheadLog, name, self.call("wal", getattr(WriteAheadLog, name)))

        # locks (checks off: the disarmed wrapper's own cost)
        self._set(TrackedLock, "acquire", self.call("locks", TrackedLock.acquire))
        self._set(TrackedLock, "release", self.call("locks.release", TrackedLock.release))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value, had = self._restore.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the spans and per-phase layer totals as JSON."""
        phases = {
            name: {
                "calls": dict(p.calls),
                "busy_s": dict(p.busy),
                "self_s": dict(p.self_wall),
                "sim_s": {k: float(v) for k, v in p.sim.items()},
                "pages": {"/".join(k): v for k, v in p.pages.items()},
            }
            for name, p in self.phases.items()
        }
        record = {
            "meta": meta,
            "phases": phases,
            "spans": [s.as_dict(self.origin) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


class _CountingInput:
    """A join input that counts the rows the join pulls from it.

    Attribute access falls through to the wrapped operator, so the join
    still sees the input's ``stats`` (pushdown telemetry reads them).
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __iter__(self) -> Iterator[Any]:
        phase = self._tracer.phase
        for row in self._inner:
            phase.join_rows_in += 1
            yield row


def _restoring(rows: Iterator[Any], op: Any, saved: dict[str, Any]) -> Iterator[Any]:
    try:
        yield from rows
    finally:
        for name, value in saved.items():
            setattr(op, name, value)

"""The three benchmark workloads: ``scan``, ``join`` and ``ingest``.

Each workload is a single client issuing ops in a closed loop against
the engine's public API.  Everything an op needs (restriction boxes,
query parameters, rows to insert) is drawn from the workload seed before
timing starts; the engine only ever receives those generated inputs.

Engine-facing calls go through module attributes (``tpcd.generate``,
``plans.build_*``) so a traced run can wrap them.  Client-side work —
input generation and the brute-force oracles — uses the functions bound
below at import time, which the tracer never wraps.
"""

from __future__ import annotations

import datetime as dt
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro import tpcd
from repro.relational.rowsize import page_capacity_for
from repro.relational.table import Database
from repro.shard import ShardedDatabase
from repro.storage import ICDE99_TESTBED
from repro.tpcd import plans
from repro.tpcd.datagen import stream_lineitems as _client_stream_lineitems
from repro.tpcd.queries import (
    Q3Params,
    Q4Params,
    Q6Params,
    reference_q3,
    reference_q4,
    reference_q6,
)
from repro.tpcd.schema import (
    ANYDATE_HI,
    ANYDATE_LO,
    LINEITEM_COLUMNS,
    MKTSEGMENTS,
    ORDERDATE_HI,
    ORDERDATE_LO,
    lineitem_schema,
)
from repro.txn import TransactionCoordinator

#: the TPC-D generator's own seed: the tables are the same for every
#: workload seed, so seeds vary the ops, not the data they run on
DATA_SEED = 19990323

L_POS = {name: index for index, name in enumerate(LINEITEM_COLUMNS)}


class Mismatch(Exception):
    """An op's output differs from the oracle."""


@dataclass
class Op:
    index: int
    kind: str
    params: Any
    expected: Any = None


@dataclass
class Outcome:
    rows: list | None
    first_row_s: float | None = None
    sim_first_row_s: float | None = None
    result: Any = None
    inserted: int = 0


@dataclass
class Setup:
    world: Any
    load_s: float
    rows_loaded: int


@dataclass
class Probe:
    """The known out-of-domain defect: an op the oracle answers but the
    Tetris plan refuses.  Run once, outside the timed phase."""

    description: str
    oracle_rows: int
    error: str | None = None


def consume(rows: Iterable[Any], t0: float, clock: Callable[[], float],
            clock0: float) -> Outcome:
    """Drain an op's output, noting wall and simulated time of the first row."""
    iterator = iter(rows)
    out: list[Any] = []
    for row in iterator:
        outcome = Outcome(out, time.perf_counter() - t0, clock() - clock0)
        out.append(row)
        out.extend(iterator)
        return outcome
    return Outcome(out)


def days(date: dt.date, count: int) -> dt.date:
    return date + dt.timedelta(days=count)


# Inputs are stratified: a pass visits every stratum of every property
# that drives an op's cost (selectivity, how it splits across dimensions,
# sort attribute and direction, window width and position) equally
# often, and the seed jitters each draw inside its stratum.  Different
# seeds give different inputs of the same total work.
def slot(rng: random.Random, k: int, n: int, jitter: float = 0.15) -> float:
    """A point in the ``k``-th of ``n`` equal slices of [0, 1]."""
    return (k + 0.5 + rng.uniform(-jitter, jitter)) / n


def jittered(rng: random.Random, selectivity: float) -> float:
    """A selectivity within a factor of 2**0.25 of its stratum."""
    return min(1.0, selectivity * 2 ** rng.uniform(-0.25, 0.25))


def split_selectivity(selectivity: float, weights: list[float]) -> list[float]:
    """Per-dimension fractions whose product is ``selectivity``."""
    total = sum(weights)
    return [selectivity ** (w / total) for w in weights]


def int_window(rng: random.Random, lo: int, hi: int, fraction: float) -> tuple[int, int]:
    width = max(1, round((hi - lo + 1) * fraction))
    start = rng.randint(lo, hi - width + 1)
    return start, start + width - 1


def date_window(rng: random.Random, lo: dt.date, hi: dt.date,
                fraction: float) -> tuple[dt.date, dt.date]:
    a, b = int_window(rng, 0, (hi - lo).days, fraction)
    return days(lo, a), days(lo, b)


def filter_rows(rows: Iterable[tuple], restrictions: dict[str, tuple[Any, Any]]) -> list[tuple]:
    """Brute force: keep the rows inside every (inclusive) range."""
    kept = list(rows)
    for attr, (lo, hi) in restrictions.items():
        p = L_POS[attr]
        kept = [row for row in kept
                if (lo is None or lo <= row[p]) and (hi is None or row[p] <= hi)]
    return kept


def check_sorted_scan(rows: list[tuple], expected: list[tuple], sort_attr: str,
                      descending: bool) -> None:
    """Same multiset as the oracle, in sort-attribute order."""
    if len(rows) != len(expected):
        raise Mismatch(f"{len(rows)} rows, oracle has {len(expected)}")
    pos = L_POS[sort_attr]
    keys = [row[pos] for row in rows]
    if keys != sorted(keys, reverse=descending):
        raise Mismatch(f"output not sorted by {sort_attr}")
    if Counter(rows) != Counter(expected):
        raise Mismatch("output rows differ from the oracle's")


class Workload:
    name = ""
    #: set-ups (each followed by a segment of the timed ops) per run;
    #: ``setup_s`` is their median
    setups = 3

    def __init__(self, seed: int, size: str, seconds: float) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        #: pass index -> the output rows that passed the oracle
        self.verified: dict[int, list] = {}

    def devices(self, world: Any) -> list[Any]:
        raise NotImplementedError

    def counters(self, world: Any) -> dict[str, int]:
        """Monotonic engine counters the traced run reports deltas of."""
        return {}

    def ops(self) -> Iterator[Op]:
        """The timed op sequence: the first pass repeated (reads only)."""
        index = 0
        while True:
            for op in self.pass_ops:
                yield Op(index, op.kind, op.params) if index >= len(self.pass_ops) else op
                index += 1

    def expected(self, world: Any, op: Op) -> Any:
        """The oracle's answer, memoized per distinct op of the pass."""
        first = self.pass_ops[op.index % len(self.pass_ops)]
        if first.expected is None:
            first.expected = self.oracle(world, first)
        return first.expected

    def check(self, world: Any, op: Op, outcome: Outcome) -> None:
        raise NotImplementedError

    def oracle(self, world: Any, op: Op) -> Any:
        raise NotImplementedError


# ----------------------------------------------------------------------
# scan: restricted sorted Tetris reads and Q6 range aggregates, cold pool
# ----------------------------------------------------------------------
SCAN_STRATA = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
SCAN_2D = ("l_orderkey", "l_shipdate")
SCAN_3D = ("l_shipdate", "l_discount", "l_quantity")
#: how a 3-D selectivity splits across (shipdate, discount, quantity)
SPLITS_3D = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
Q6_DAYS = (61, 122, 244, 365)


class ScanWorkload(Workload):
    name = "scan"
    sizes = {
        "full": {"sf": 2.0, "pool": 256, "strata": SCAN_STRATA, "reps": 2, "min_ops": 100},
        "tiny": {"sf": 0.05, "pool": 32, "strata": SCAN_STRATA[::3], "reps": 1, "min_ops": 20},
    }

    def __init__(self, seed: int, size: str, seconds: float) -> None:
        super().__init__(seed, size, seconds)
        self.cfg = self.sizes[size]
        self.config = tpcd.TPCDConfig(scale_factor=self.cfg["sf"], seed=DATA_SEED)
        self.min_ops = self.cfg["min_ops"]
        rng = self.rng
        order_max = self.config.order_count
        strata = self.cfg["strata"] * self.cfg["reps"]
        specs: list[tuple[str, Any]] = []
        for index, stratum in enumerate(strata):
            # 2-D: every (split, sort attribute, direction) combination
            for k in range(4):
                u = slot(rng, k, 4)
                f_key, f_ship = split_selectivity(jittered(rng, stratum), [u, 1 - u])
                box = {
                    "l_orderkey": int_window(rng, 1, order_max, f_key),
                    "l_shipdate": date_window(rng, ANYDATE_LO, ANYDATE_HI, f_ship),
                }
                specs.append(("scan2d", (box, SCAN_2D[k % 2], k >= 2)))
            # 3-D: each dimension takes the largest share of the
            # selectivity once, and is the sort attribute once
            for k, weights in enumerate(SPLITS_3D):
                f_ship, f_disc, f_qty = split_selectivity(jittered(rng, stratum), weights)
                box = {
                    "l_shipdate": date_window(rng, ANYDATE_LO, ANYDATE_HI, f_ship),
                    "l_discount": int_window(rng, 0, 10, f_disc),
                    "l_quantity": int_window(rng, 1, 50, f_qty),
                }
                specs.append(("scan3d", (box, SCAN_3D[k], (index + k) % 2 == 1)))
        domain = (ANYDATE_HI - ANYDATE_LO).days
        per_span = len(strata) // 2
        for span in Q6_DAYS:
            for k in range(per_span):
                start = round(slot(rng, k, per_span) * (domain - span))
                specs.append(("q6", Q6Params(
                    shipdate_from=days(ANYDATE_LO, start),
                    shipdate_days=span,
                    discount=(2, 4, 6, 8)[k % 4] + rng.randint(-1, 1),
                    quantity_below=(13, 25, 38, 50)[(k + 1) % 4] + rng.randint(-2, 1),
                )))
        rng.shuffle(specs)
        self.pass_ops = [Op(i, kind, params) for i, (kind, params) in enumerate(specs)]

    def setup(self) -> Setup:
        data = tpcd.generate(self.config)
        db = Database(ICDE99_TESTBED, buffer_pages=self.cfg["pool"])
        t0 = time.perf_counter()
        sort_ub = plans.build_lineitem_ub_sort(db, data)
        range_ub = plans.build_lineitem_ub_range(db, data)
        load_s = time.perf_counter() - t0
        # warm-up: one full sweep per instance fills the backend's
        # per-page column cache, which every later op reuses
        for table in (sort_ub, range_ub):
            for _ in table.tetris_scan(None, table.dims[0]):
                pass
        world = {"db": db, "data": data, "scan2d": sort_ub, "scan3d": range_ub}
        return Setup(world, load_s, len(sort_ub) + len(range_ub))

    def devices(self, world: Any) -> list[Any]:
        return [world["db"].disk]

    def prepare(self, world: Any, op: Op) -> None:
        world["db"].reset_measurement()  # cold pool before every op

    def run(self, world: Any, op: Op, t0: float) -> Outcome:
        db = world["db"]
        if op.kind == "q6":
            plan = plans.q6_full_plan("tetris", db, world["scan3d"], op.params)
            return consume(plan, t0, lambda: db.clock, db.clock)
        box, sort_attr, descending = op.params
        scan = world[op.kind].tetris_scan(box, sort_attr, descending=descending)
        return consume((row for _, row in scan), t0, lambda: db.clock, db.clock)

    def oracle(self, world: Any, op: Op) -> Any:
        data = world["data"]
        if op.kind == "q6":
            return [(reference_q6(data, op.params),)]
        return filter_rows(data.lineitems, op.params[0])

    def check(self, world: Any, op: Op, outcome: Outcome) -> None:
        expected = self.expected(world, op)
        if op.kind == "q6":
            if outcome.rows != expected:
                raise Mismatch(f"Q6 sum {outcome.rows} != oracle {expected}")
            return
        _, sort_attr, descending = op.params
        check_sorted_scan(outcome.rows, expected, sort_attr, descending)

    def probe(self, world: Any) -> Probe:
        box = {"l_shipdate": (dt.date(1998, 6, 1), dt.date(1999, 3, 31))}
        probe = Probe("2-D tetris_scan with l_shipdate up to 1999-03-31",
                      len(filter_rows(world["data"].lineitems, box)))
        try:
            rows = [row for _, row in world["scan2d"].tetris_scan(box, "l_orderkey")]
            check_sorted_scan(rows, filter_rows(world["data"].lineitems, box), "l_orderkey", False)
        except (ValueError, Mismatch) as exc:
            probe.error = f"{type(exc).__name__}: {exc}"
        return probe


# ----------------------------------------------------------------------
# join: Q3 and Q4 end to end across the plan ladder, cold
# ----------------------------------------------------------------------
JOIN_RUNGS = ("q3.classic", "q3.tetris", "q3.pushdown",
              "q4.classic", "q4.pipelined", "q4.pushdown")
Q3_WINDOWS = (45, 90, 180, 365)
Q4_WINDOWS = (30, 61, 91, 122)
#: ops per rung in a pass.  Rung costs cluster, so the counts keep the
#: p50 and p90 ranks inside a cluster (the classic rungs, the pipelined
#: Q4) instead of on the gap between two.
RUNG_COUNTS = {
    "full": {"q3.classic": 7, "q3.tetris": 5, "q3.pushdown": 4,
             "q4.classic": 6, "q4.pipelined": 8, "q4.pushdown": 6},
    "tiny": dict.fromkeys(JOIN_RUNGS, 2),
}


class JoinWorkload(Workload):
    name = "join"
    sizes = {
        "full": {"sf": 0.5, "pool": 256, "min_ops": 100},
        "tiny": {"sf": 0.1, "pool": 64, "min_ops": 12},
    }

    def __init__(self, seed: int, size: str, seconds: float) -> None:
        super().__init__(seed, size, seconds)
        self.cfg = self.sizes[size]
        self.config = tpcd.TPCDConfig(
            scale_factor=self.cfg["sf"], seed=DATA_SEED, correlated_dates=True
        )
        self.min_ops = self.cfg["min_ops"]
        rng = self.rng
        span = (ORDERDATE_HI - ORDERDATE_LO).days
        specs: list[tuple[str, Any]] = []
        for r, rung in enumerate(JOIN_RUNGS):
            count = RUNG_COUNTS[size][rung]
            for k in range(count):
                # windows start in the middle of the date domain: on
                # correlated dates the position sets how far the LINEITEM
                # sweep runs, so a rung's cost stays flat across its ops
                position = 0.35 + 0.3 * slot(rng, k, count)
                if rung.startswith("q3"):
                    width = Q3_WINDOWS[3 * k % len(Q3_WINDOWS)]
                    start = days(ORDERDATE_LO, round(position * (span - width)))
                    params: Any = Q3Params(
                        segment=MKTSEGMENTS[(r + k) % len(MKTSEGMENTS)],
                        orderdate_from=start,
                        orderdate_before=days(start, width),
                        shipdate_after=max(ANYDATE_LO, days(start, rng.randint(-45, 15))),
                    )
                else:
                    width = Q4_WINDOWS[3 * k % len(Q4_WINDOWS)]
                    start = days(ORDERDATE_LO, round(position * (span - width + 1)))
                    params = Q4Params(orderdate_from=start, orderdate_until=days(start, width))
                specs.append((rung, params))
        rng.shuffle(specs)
        self.pass_ops = [Op(i, kind, params) for i, (kind, params) in enumerate(specs)]

    def setup(self) -> Setup:
        data = tpcd.generate(self.config)
        db = Database(ICDE99_TESTBED, buffer_pages=self.cfg["pool"], devices=2, prefetch_depth=8)
        t0 = time.perf_counter()
        tables = {
            "customer_heap": plans.build_customer_heap(db, data),
            "order_heap": plans.build_order_heap(db, data),
            "lineitem_heap": plans.build_lineitem_heap(db, data),
            "customer_ub": plans.build_customer_ub(db, data),
            "order_ub": plans.build_order_ub(db, data),
            "lineitem_ub": plans.build_lineitem_ub_sort(db, data),
            "lineitem_q4": plans.build_lineitem_ub_q4(db, data),
        }
        load_s = time.perf_counter() - t0
        for name, table in tables.items():
            rows = table.scan() if name.endswith("heap") else (
                row for _, row in table.tetris_scan(None, table.dims[0]))
            for _ in rows:
                pass
        world = {"db": db, "data": data, **tables}
        return Setup(world, load_s, sum(len(t) for t in tables.values()))

    def devices(self, world: Any) -> list[Any]:
        return [world["db"].disk]

    def prepare(self, world: Any, op: Op) -> None:
        world["db"].reset_measurement()  # every query runs cold

    @staticmethod
    def plan(world: Any, kind: str, p: Any) -> Any:
        db, w = world["db"], world
        if kind == "q3.classic":
            access, _ = plans.q3_lineitem_access("fts-sort", db, w["lineitem_heap"], p)
            return plans.q3_full_plan(db, w["customer_heap"], w["order_heap"], access, p)
        if kind == "q3.tetris":
            access, _ = plans.q3_lineitem_access("tetris", db, w["lineitem_ub"], p)
            return plans.q3_full_plan(db, w["customer_ub"], w["order_ub"], access, p,
                                      use_tetris=True)
        if kind == "q3.pushdown":
            return plans.q3_pushdown_plan(db, w["customer_ub"], w["order_ub"],
                                          w["lineitem_ub"], p).plan
        if kind == "q4.classic":
            access, _ = plans.q4_order_access("fts-sort", db, w["order_heap"], p)
            return plans.q4_full_plan(db, access, w["lineitem_q4"], p)
        if kind == "q4.pipelined":
            return plans.q4_pipelined_plan(db, w["order_ub"], w["lineitem_q4"], p,
                                           prefetch=True).plan
        if kind == "q4.pushdown":
            return plans.q4_pushdown_plan(db, w["order_ub"], w["lineitem_q4"], p).plan
        raise ValueError(f"unknown join rung {kind!r}")

    def run(self, world: Any, op: Op, t0: float) -> Outcome:
        db = world["db"]
        clock0 = db.clock
        return consume(self.plan(world, op.kind, op.params), t0, lambda: db.clock, clock0)

    def oracle(self, world: Any, op: Op) -> Any:
        reference = reference_q3 if op.kind.startswith("q3") else reference_q4
        return reference(world["data"], op.params)

    def check(self, world: Any, op: Op, outcome: Outcome) -> None:
        expected = self.expected(world, op)
        if outcome.rows != expected:
            raise Mismatch(f"{op.kind}: {len(outcome.rows)} rows differ from "
                           f"the oracle's {len(expected)}")

    def probe(self, world: Any) -> Probe:
        params = Q3Params(orderdate_before=dt.date(1998, 10, 1))
        probe = Probe("Q3 tetris rung with orderdate_before=1998-10-01",
                      len(reference_q3(world["data"], params)))
        try:
            rows = list(self.plan(world, "q3.tetris", params))
            if rows != reference_q3(world["data"], params):
                raise Mismatch("out-of-domain Q3 differs from the oracle")
        except (ValueError, Mismatch) as exc:
            probe.error = f"{type(exc).__name__}: {exc}"
        return probe


# ----------------------------------------------------------------------
# ingest: 2PC inserts and sharded sorted scans on a cache-resident world
# ----------------------------------------------------------------------
INGEST_DIMS = ("l_orderkey", "l_shipdate")
INSERT_SIZES = (50, 75, 100, 125, 150)
INGEST_STRATA = (0.005, 0.01, 0.02, 0.04)


class IngestWorkload(Workload):
    name = "ingest"
    sizes = {
        "full": {"sf": 1.0, "shards": 4, "copies": 2, "pool": 2048,
                 "min_ops": 100, "ops_per_s": 60},
        "tiny": {"sf": 0.05, "shards": 4, "copies": 2, "pool": 256,
                 "min_ops": 20, "ops_per_s": 0},
    }

    def __init__(self, seed: int, size: str, seconds: float) -> None:
        super().__init__(seed, size, seconds)
        self.cfg = self.sizes[size]
        self.config = tpcd.TPCDConfig(scale_factor=self.cfg["sf"], seed=DATA_SEED)
        self.schema = lineitem_schema(self.config.order_count)
        self.page_capacity = page_capacity_for(
            self.schema, extra_payload_bytes=plans.LINEITEM_EXTRA_BYTES
        )
        self.source_passes = 0
        self.loaded = list(_client_stream_lineitems(self.config))
        # One op sequence, never cycled: inserts change the state later
        # ops read.  Every segment replays it on its fresh world.  Its
        # length follows from --seconds at a fixed reference rate, not
        # from the host's speed, so the table growth and memory a run
        # reaches are the same on every host.
        rng = self.rng
        total = max(self.cfg["min_ops"], round(seconds * self.cfg["ops_per_s"] / self.setups))
        total += -total % 4
        self.min_ops = total * self.setups
        fresh = self._fresh_rows()
        sizes: list[int] = []
        ops: list[Op] = []
        for block in range(total // 4):
            kinds = ["insert", "insert", "insert", "scan"]
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "scan":
                    fraction = jittered(rng, INGEST_STRATA[block % len(INGEST_STRATA)])
                    box = {"l_shipdate": date_window(rng, ANYDATE_LO, ANYDATE_HI, fraction)}
                    params: Any = (box, INGEST_DIMS[block // 4 % 2], block // 8 % 2 == 1)
                else:
                    if not sizes:
                        sizes = rng.sample(INSERT_SIZES, len(INSERT_SIZES))
                    params = [next(fresh) for _ in range(sizes.pop())]
                ops.append(Op(len(ops), kind, params))
        self.pass_ops = ops

    def _fresh_rows(self) -> Iterator[tuple]:
        """New LINEITEM rows inside the loaded key domain, shuffled."""
        generation = 1
        while True:
            config = tpcd.TPCDConfig(scale_factor=self.cfg["sf"],
                                     seed=DATA_SEED + 7919 * (self.seed * 64 + generation))
            rows = list(_client_stream_lineitems(config))
            self.rng.shuffle(rows)
            yield from rows
            generation += 1

    def ops(self) -> Iterator[Op]:
        return iter(self.pass_ops)

    def source(self) -> Iterator[tuple]:
        self.source_passes += 1
        return tpcd.stream_lineitems(self.config)

    def setup(self) -> Setup:
        cfg = self.cfg
        sdb = ShardedDatabase(
            self.schema, INGEST_DIMS, "l_orderkey",
            shards=cfg["shards"], copies=cfg["copies"],
            page_capacity=self.page_capacity, buffer_pages=cfg["pool"], wal=True,
        )
        txn = TransactionCoordinator(sdb)
        t0 = time.perf_counter()
        result = txn.atomic_load(self.source)
        load_s = time.perf_counter() - t0
        if result.verdict != "commit" or result.rows != len(self.loaded):
            raise Mismatch(f"initial load: {result}")
        sdb.sorted_scan(None, "l_orderkey")  # warm-up: the pools hold every shard
        world = {"sdb": sdb, "txn": txn, "committed": list(self.loaded)}
        return Setup(world, load_s, result.rows)

    def devices(self, world: Any) -> list[Any]:
        disks = []
        for shard in world["sdb"].shards:
            for copy in shard.copies:
                disks.append(copy.db.disk)
                disks.append(copy.db.wal.device)
        disks.append(world["txn"].log.device)
        return disks

    def counters(self, world: Any) -> dict[str, int]:
        wals = [copy.db.wal for shard in world["sdb"].shards for copy in shard.copies]
        return {
            "txn.log_appends": world["txn"].log.append_count,
            "wal.appends": sum(wal.append_count for wal in wals),
        }

    def prepare(self, world: Any, op: Op) -> None:
        pass  # the pools are meant to stay warm

    def run(self, world: Any, op: Op, t0: float) -> Outcome:
        if op.kind == "insert":
            result = world["txn"].atomic_insert(op.params)
            return Outcome(None, result=result, inserted=len(op.params))
        box, sort_attr, descending = op.params
        result = world["sdb"].sorted_scan(box, sort_attr, descending=descending)
        rows = [row for _, row in result.rows]
        first = time.perf_counter() - t0 if rows else None
        return Outcome(rows, first, result.simulated_elapsed if rows else None, result)

    def check(self, world: Any, op: Op, outcome: Outcome) -> None:
        committed = world["committed"]
        if op.kind == "insert":
            committed.extend(op.params)
            result = outcome.result
            if result.verdict != "commit" or result.rows != len(committed):
                raise Mismatch(f"insert: {result.verdict}, {result.rows} rows "
                               f"vs {len(committed)} committed")
            return
        result = outcome.result
        if result.degradations or result.partial:
            raise Mismatch(f"fault-free sharded scan degraded: {result.degradations}")
        box, sort_attr, descending = op.params
        check_sorted_scan(outcome.rows, filter_rows(committed, box), sort_attr, descending)

    def probe(self, world: Any) -> Probe:
        box = {"l_shipdate": (dt.date(1998, 6, 1), dt.date(1999, 3, 31))}
        probe = Probe("sharded sorted_scan with l_shipdate up to 1999-03-31",
                      len(filter_rows(world["committed"], box)))
        try:
            result = world["sdb"].sorted_scan(box, "l_orderkey")
            check_sorted_scan([row for _, row in result.rows],
                              filter_rows(world["committed"], box), "l_orderkey", False)
        except (ValueError, Mismatch) as exc:
            probe.error = f"{type(exc).__name__}: {exc}"
        return probe


WORKLOADS = {cls.name: cls for cls in (ScanWorkload, JoinWorkload, IngestWorkload)}

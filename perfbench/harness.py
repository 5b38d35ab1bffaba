"""Timed phase, oracle checks, end-to-end metrics and the traced run."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy

from tracing import Tracer
from workloads import Mismatch, Op, Workload

#: Host-speed probe.  The shared development host ran identical work up
#: to ~40 % faster or slower from one run to the next, in spells longer
#: than a run, which no amount of work per run averages out.  So every
#: op is followed (outside its timing) by this fixed, engine-independent
#: mix of Python and NumPy work, and the wall-clock metrics are scaled
#: by ``PROBE_REF_S / median(probe)``: they read as on a host where the
#: probe takes ``PROBE_REF_S`` (its median on the development host).  An
#: engine change moves them as before; a host spell moves the probe too.
PROBE_REF_S = 0.0025
_CAL_ROWS = [(i * 7919 % 10007, i) for i in range(3000)]
_CAL_ARRAY = numpy.array([i * 2654435761 % 2**32 for i in range(60000)], dtype=numpy.uint64)


def calibrate() -> float:
    """One run of the host-speed probe, in seconds."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for key, value in _CAL_ROWS:
        counts[key % 251] = counts.get(key % 251, 0) + value
    sorted(_CAL_ROWS, key=lambda row: (row[0] % 13, row[1]))
    numpy.sort(_CAL_ARRAY)
    return time.perf_counter() - t0


class ReconciliationError(RuntimeError):
    """The traced run disagrees with IOStats or with the untraced run."""


@dataclass
class OpRecord:
    kind: str
    wall_s: float
    ok: bool
    error: str | None = None
    first_row_s: float | None = None
    sim_s: float = 0.0
    sim_first_row_s: float | None = None
    #: ("read"/"write", category) -> pages, summed over the world's devices
    pages: Counter = field(default_factory=Counter)
    prefetch: tuple = (0, 0, 0, 0.0, 0.0)
    inserted: int = 0
    degradations: int = 0
    algorithm: tuple = ()


@dataclass
class Phase:
    records: list[OpRecord]
    pass_len: int
    setup_s: list[float]
    load_s: list[float]
    setup_written: int
    rows_loaded: int
    failures: Counter
    #: workload counters (log appends, ...) moved by the first pass
    counters: Counter = field(default_factory=Counter)
    probe: Any = None
    calibration: list[float] = field(default_factory=list)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def io_delta(before: list[Any], after: list[Any]) -> tuple[float, Counter, tuple]:
    sim = 0.0
    pages: Counter = Counter()
    prefetch = [0, 0, 0, 0.0, 0.0]
    for b, a in zip(before, after):
        sim += a.time - b.time
        for name, cat in a.categories.items():
            prior = b.categories.get(name)
            pages[("read", name)] += cat.pages_read - (prior.pages_read if prior else 0)
            pages[("write", name)] += cat.pages_written - (prior.pages_written if prior else 0)
        p, q = a.prefetch, b.prefetch
        prefetch[0] += p.prefetch_issued - q.prefetch_issued
        prefetch[1] += p.prefetch_hits - q.prefetch_hits
        prefetch[2] += p.prefetch_wasted - q.prefetch_wasted
        prefetch[3] += p.queue_busy_time - q.queue_busy_time
        prefetch[4] += p.queue_wait_time - q.queue_wait_time
    return sim, +pages, tuple(prefetch)


def exact_sim(before: list[Any], after: list[Any]) -> Fraction:
    return sum((Fraction(a.time) - Fraction(b.time) for b, a in zip(before, after)),
               Fraction(0))


def algorithm_counters(tracer: Tracer) -> tuple:
    """TetrisStats / SortStats / cover sizes of the op that just ran."""
    return (
        tuple((s.stats.regions_examined, s.stats.regions_read, s.stats.regions_skipped,
               s.stats.pages_skipped_by_pushdown, s.stats.slices, s.stats.max_cache_tuples,
               s.stats.tuples_output) for s in tracer.tetris_scans),
        tuple((s.stats.input_rows, s.stats.runs_created, s.stats.merge_passes,
               s.stats.peak_temp_pages) for s in tracer.sorts),
        tuple(len(c.intervals) for c in tracer.covers),
    )


def run_phase(workload: Workload, *, seconds: float | None, segments: int,
              tracer: Tracer | None = None) -> tuple[Any, Phase]:
    """Set up and run ops ``segments`` times; return the last world.

    Each segment sets up a fresh world (timed: ``setup_s``) and runs ops
    on it, so the timed samples spread over the whole run instead of one
    window of it, which evens out slow and fast spells of the host.
    ``seconds=None`` runs exactly one first pass (the traced run's
    unit).  Otherwise every segment runs whole passes until its ops'
    summed wall time reaches ``seconds / segments`` and it has done its
    share of ``min_ops``.  Every segment repeats the same ops on an
    identical world, so each repeats the first segment's simulated
    time and page counts exactly; that is checked.
    """
    pass_len = len(workload.pass_ops)
    segment_ops = -(-workload.min_ops // segments)
    setup_s: list[float] = []
    load_s: list[float] = []
    records: list[OpRecord] = []
    failures: Counter = Counter()
    counters: Counter = Counter()
    calibration: list[float] = []
    world = None
    for segment in range(segments):
        world = setup = devices = None  # free the previous segment's world
        gc.collect()
        if tracer is not None:
            tracer.set_phase("setup")
        t0 = time.perf_counter()
        setup = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        load_s.append(setup.load_s)
        world = setup.world
        devices = workload.devices(world)
        if segment == 0:
            setup_written = sum(c.pages_written for d in devices
                                for name, c in d.stats.categories.items() if name != "temp")
        if tracer is not None:
            tracer.set_phase("ops")
        start_counters = workload.counters(world)
        start = len(records)
        busy = 0.0
        for op in workload.ops():
            if seconds is None:
                if op.index >= pass_len:
                    break
            elif (busy >= seconds / segments and op.index >= segment_ops
                  and op.index % pass_len == 0):
                break
            record = run_op(workload, world, devices, op, tracer)
            calibration.append(calibrate())
            busy += record.wall_s
            if not record.ok:
                failures[record.error.split(":")[0]] += 1
            records.append(record)
            if op.index == pass_len - 1 and segment == 0:
                counters.update(workload.counters(world))
                counters.subtract(start_counters)
        done = len(records) - start
        if done < (pass_len if seconds is None else segment_ops):
            raise RuntimeError(f"op sequence ran out after {done} ops")
        for first, again in zip(records[:pass_len], records[start:start + pass_len]):
            if (first.sim_s, first.pages) != (again.sim_s, again.pages):
                raise RuntimeError(f"segment {segment} did not repeat the first "
                                   f"segment's simulated I/O for a {first.kind} op")
    return world, Phase(records, pass_len, setup_s, load_s, setup_written,
                        setup.rows_loaded, failures, counters, calibration=calibration)


def run_op(workload: Workload, world: Any, devices: list[Any], op: Op,
           tracer: Tracer | None) -> OpRecord:
    workload.prepare(world, op)
    before = [d.snapshot() for d in devices]
    if tracer is not None:
        tracer.begin_op(f"{op.index}:{op.kind}")
    error = None
    t0 = time.perf_counter()
    try:
        outcome = workload.run(world, op, t0)
    except Exception as exc:  # an op that raises is a failed op, by type
        outcome = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    after = [d.snapshot() for d in devices]
    sim, pages, prefetch = io_delta(before, after)
    record = OpRecord(op.kind, wall, error is None, error, sim_s=sim, pages=pages,
                      prefetch=prefetch)
    if tracer is not None:
        record.algorithm = algorithm_counters(tracer)
        if tracer.full:
            reconcile(tracer, op, before, after, pages)
    if outcome is not None:
        record.first_row_s = outcome.first_row_s
        record.sim_first_row_s = outcome.sim_first_row_s
        record.inserted = outcome.inserted
        record.degradations = len(getattr(outcome.result, "degradations", ()) or ())
        # a repeat of an op whose output already passed the oracle, on an
        # identical world, passes if it returns the same rows
        key = op.index % len(workload.pass_ops)
        repeat = outcome.rows is not None and not record.degradations and (
            workload.verified.get(key) == outcome.rows)
        try:
            if not repeat:
                workload.check(world, op, outcome)
                if outcome.rows is not None:
                    workload.verified[key] = outcome.rows
        except Mismatch as exc:
            record.ok = False
            record.error = f"Mismatch: {exc}"
    return record


def reconcile(tracer: Tracer, op: Op, before: list[Any], after: list[Any],
              pages: Counter) -> None:
    """Per-layer simulated seconds and page counts must equal IOStats."""
    expected = exact_sim(before, after)
    if tracer.op_sim != expected:
        raise ReconciliationError(
            f"op {op.index} ({op.kind}): layers charged {float(tracer.op_sim)!r} "
            f"simulated seconds, IOStats moved {float(expected)!r}"
        )
    traced = +Counter(tracer.op_pages)
    if traced != pages:
        raise ReconciliationError(
            f"op {op.index} ({op.kind}): traced pages {dict(traced)} != IOStats {dict(pages)}"
        )


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_scale(phase: Phase) -> float:
    """Factor that turns this run's wall times into reference-host times."""
    return PROBE_REF_S / statistics.median(phase.calibration)


def end_to_end(phase: Phase, scale: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; wall times are multiplied by ``scale``."""
    ok = [r for r in phase.records if r.ok]
    first = [r.first_row_s for r in ok if r.first_row_s is not None]
    first_pass = phase.records[: phase.pass_len]
    sim_first = [r.sim_first_row_s for r in first_pass if r.ok and r.sim_first_row_s is not None]
    if not ok or len(first) < 2 or not sim_first:
        raise RuntimeError("too few successful ops to report latencies")
    latency = [r.wall_s for r in ok]
    wall_ms = 1000 * scale
    return {
        "setup_s": scale * statistics.median(phase.setup_s),
        "ops_per_s": len(ok) / (scale * sum(r.wall_s for r in phase.records)),
        "latency_p50_ms": wall_ms * statistics.median(latency),
        "latency_p90_ms": wall_ms * percentile(latency, 90),
        "first_row_p50_ms": wall_ms * statistics.median(first),
        "first_row_p90_ms": wall_ms * percentile(first, 90),
        "sim_io_s": sum(r.sim_s for r in first_pass),
        "sim_first_row_mean_s": statistics.fmean(sim_first),
        "peak_rss_mb": peak_rss_mb(),
    }


def write_pages_per_krow(phase: Phase) -> float:
    """Device pages written (sort runs aside) per 1000 rows stored, over
    the set-up load and the first pass."""
    first_pass = phase.records[: phase.pass_len]
    written = phase.setup_written + sum(
        n for r in first_pass for (kind, cat), n in r.pages.items()
        if kind == "write" and cat != "temp"
    )
    stored = phase.rows_loaded + sum(r.inserted for r in first_pass if r.ok)
    return 1000 * written / stored


def samples(phase: Phase) -> dict[str, Any]:
    ok = [r for r in phase.records if r.ok]
    return {
        "probe_ms": 1000 * statistics.median(phase.calibration),
        "load_s": statistics.median(phase.load_s),
        "ops": len(phase.records),
        "latency_samples": len(ok),
        "first_row_samples": sum(r.first_row_s is not None for r in ok),
        "first_pass_ops": phase.pass_len,
        "setups": len(phase.setup_s),
    }


# ----------------------------------------------------------------------
# per-layer metrics from the traced run
# ----------------------------------------------------------------------
def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, setup: Any, ops: Any, phase: Phase, reference: Phase,
              workload: Workload) -> dict[str, float]:
    """Set-up layers (tpcd, schema, ubtree, shard load, locks) cover the
    traced set-up plus the first pass; op-path layers cover the pass.

    Layers that some workload never enters report a share of the pass's
    op time (of set-up time, for the shard load; of simulated time, for
    the scheduler queues) rather than seconds, so that no time metric
    reads a constant 0 on a workload that does not use the layer.
    Operators nest in plan trees, so theirs is a share of self time."""
    both = (setup, ops)
    op_wall = sum(r.wall_s for r in phase.records[: phase.pass_len])
    setup_wall = sum(phase.setup_s)

    def busy(layer: str, phases=both) -> float:
        return sum(p.busy.get(layer, 0.0) for p in phases)

    def calls(layer: str, phases=both) -> int:
        return sum(p.calls.get(layer, 0) for p in phases)

    first = phase.records[: phase.pass_len]
    tetris = [s for r in first for s in r.algorithm[0]]
    sorts = [s for r in first for s in r.algorithm[1]]
    covers = [c for r in first for c in r.algorithm[2]]
    pages = Counter()
    for r in first:
        pages.update(r.pages)
    prefetch = [sum(r.prefetch[i] for r in first) for i in range(5)]
    rows_in = sum(r.inserted for r in first if r.ok)
    wal_written = sum(n for (layer, kind, cat), n in ops.pages.items()
                      if kind == "write" and cat == "wal")
    lookups = ops.calls.get("buffer", 0)
    metrics = {
        "tpcd.generate_s": busy("tpcd"),
        "tpcd.source_rows": setup.rows.get("tpcd", 0) + ops.rows.get("tpcd", 0),
        "schema.encode_calls": calls("schema"),
        "schema.encode_s": busy("schema"),
        "ubtree.build_s": busy("ubtree.build"),
        "ubtree.insert_rows": calls("ubtree.insert"),
        "ubtree.insert_s": busy("ubtree.insert"),
        "tetris.busy_s": busy("tetris", (ops,)),
        "tetris.regions_examined": sum(t[0] for t in tetris),
        "tetris.regions_read": sum(t[1] for t in tetris),
        "tetris.regions_skipped": sum(t[2] for t in tetris),
        "tetris.slices": sum(t[4] for t in tetris),
        "tetris.max_cache_tuples": max((t[5] for t in tetris), default=0),
        "tetris.rows_per_region_read": ratio(sum(t[6] for t in tetris),
                                             sum(t[1] for t in tetris)),
        "kernels.calls": ops.calls.get("kernels", 0),
        "kernels.busy_s": busy("kernels", (ops,)),
        "buffer.lookups": lookups,
        "buffer.hit_ratio": ratio(lookups - ops.buffer_misses, lookups),
        "buffer.disk_fetches": ops.buffer_misses,
        "buffer.busy_s": busy("buffer", (ops,)),
        "disk.read_seeks": ops.read_seeks,
        "disk.sim_s": float(ops.device_sim),
        "prefetch.issued": prefetch[0],
        "prefetch.hit_ratio": ratio(prefetch[1], prefetch[0]),
        "prefetch.wasted": prefetch[2],
        "scheduler.queue_busy_share": ratio(prefetch[3], float(ops.device_sim)),
        "scheduler.queue_wait_share": ratio(prefetch[4], float(ops.device_sim)),
        "sort.self_share": ratio(ops.self_wall.get("sort", 0.0), op_wall),
        "sort.runs_created": sum(s[1] for s in sorts),
        "sort.merge_passes": sum(s[2] for s in sorts),
        "sort.peak_temp_pages": max((s[3] for s in sorts), default=0),
        "join.self_share": ratio(ops.self_wall.get("join", 0.0), op_wall),
        "join.rows_in_per_row_out": ratio(ops.join_rows_in, ops.join_rows_out),
        "group.self_share": ratio(ops.self_wall.get("group", 0.0), op_wall),
        "pushdown.cover_share": ratio(busy("pushdown", (ops,)), op_wall),
        "pushdown.cover_intervals": sum(covers),
        "pushdown.pages_skipped": sum(t[3] for t in tetris),
        "shard.load_share": ratio(busy("shard.load", (setup,)), setup_wall),
        "shard.source_passes": getattr(workload, "source_passes", 0),
        "shard.scan_share": ratio(busy("shard.scan", (ops,)), op_wall),
        "shard.merge_share": ratio(busy("shard.merge", (ops,)), op_wall),
        "shard.degradations": sum(r.degradations for r in first),
        "txn.commit_share": ratio(busy("txn.commit", (ops,)) + busy("txn.log", (ops,)), op_wall),
        "txn.log_appends": phase.counters["txn.log_appends"],
        "wal.appends": phase.counters["wal.appends"],
        "wal.pages_written_per_krow": ratio(1000 * wal_written, rows_in),
        "locks.acquires": calls("locks"),
        "locks.busy_s": busy("locks") + busy("locks.release"),
        "temp_pages_written": pages[("write", "temp")],
        "write_pages_per_krow": write_pages_per_krow(phase),
        "op_failure_ratio": ratio(sum(not r.ok for r in first), len(first)),
        "probe.out_of_domain_errors": int(phase.probe is not None and phase.probe.error is not None),
        "trace.overhead_ratio": ratio(sum(r.wall_s for r in first),
                                      sum(r.wall_s for r in reference.records)),
    }
    for category in ("data", "temp", "wal"):
        metrics[f"disk.pages_read.{category}"] = pages[("read", category)]
        metrics[f"disk.pages_written.{category}"] = pages[("write", category)]
    return metrics


def compare_runs(traced: Phase, reference: Phase) -> None:
    """The traced pass must repeat the untraced pass exactly."""
    if len(traced.records) != len(reference.records):
        raise ReconciliationError("traced and untraced passes ran different op counts")
    for index, (t, r) in enumerate(zip(traced.records, reference.records)):
        for name in ("sim_s", "pages", "prefetch", "algorithm", "ok", "sim_first_row_s"):
            if getattr(t, name) != getattr(r, name):
                raise ReconciliationError(
                    f"op {index} ({t.kind}): traced {name} {getattr(t, name)!r} "
                    f"!= untraced {getattr(r, name)!r}"
                )

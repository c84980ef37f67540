"""The four workloads and the code that runs them.

Each workload is a closed loop with one client in one process: the
next operation starts only when the previous one returned, and no
timer-driven work runs beside it.  A run sets the workload up
``Sizes.setups`` times (``setup_s`` is the median), measures operations
for the requested number of seconds, reads peak memory, and then checks
the program's outputs against :mod:`.reference`.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.core.scenarios
import repro.tsdb.persistence
import repro.tsdb.tier.compact
import repro.tsdb.wire
from repro.core import (
    CttEcosystem,
    EcosystemConfig,
    trondheim_deployment,
    vejle_deployment,
)
from repro.region import CityPolicy
from repro.serve import QueryClient, QueryServer
from repro.simclock import DAY, HOUR
from repro.tsdb import TSDB, DurableStore, ExprQuery, ShardedTSDB, segment_stats

from . import inputs, reference
from .tracing import WORKLOAD_STATS, Tracer

#: journal_bytes_per_point and peak_rss_mb are read after this many
#: operations, so they do not depend on how many a run completes (the
#: city store grows with every simulated hour).
CHECKPOINT_OPS = 24
#: Dashboard answers kept for the reference check: every Nth op and the last.
SAMPLE_EVERY = 16
#: The host's speed swings about 2x over minutes, because other tenants
#: share its cores: the same city_pipeline seed measured a 117 ms and a
#: 55 ms median operation an hour apart.  A fixed job is therefore timed
#: before every set-up and every operation, and the timings are reported
#: rescaled to a host on which that job takes CALIBRATION_REF_S, by the
#: median of the run's samples.  The run record keeps the raw figures.
CALIBRATION_REF_S = 0.0018


def _calibration_job() -> float:
    """Seconds a fixed mix of interpreter, dict, JSON and numpy work takes
    now (the kinds of work the four workloads spend their time in)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    table = {str(i): i for i in range(2_000)}
    json.loads(json.dumps(table))
    np.sort(np.sqrt(np.arange(50_000, 0, -1, dtype=np.float64)))
    return time.perf_counter() - t0


def _journal_stats(path: Path) -> tuple[int, int]:
    """(blocks, bytes) of a journal file, or zeros if there is none."""
    if not path.exists():
        return 0, 0
    return segment_stats(path, strict=False).blocks, path.stat().st_size


class Workload:
    """Interface :func:`run` uses.  ``setup`` is timed; ``prepare`` (the
    inputs) and ``before_setup`` (per-set-up scratch files) are not."""

    name = ""

    def __init__(self, seed: int, sizes: inputs.Sizes, work: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work

    def prepare(self) -> None:
        pass

    def before_setup(self, k: int) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[float, int]:
        """One operation; returns (latency seconds, points it covered)."""
        raise NotImplementedError

    def journal_bytes_per_point(self) -> float:
        raise NotImplementedError

    def layer_stats(self) -> dict[str, int]:
        """The program's own counters since set-up, for the traced run."""
        return {}

    def check(self) -> list[str]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# city_pipeline
# ---------------------------------------------------------------------------


@dataclass
class _JournaledConfig(EcosystemConfig):
    """Builds the shared store as a sharded TSDB behind a binary WAL."""

    wal_path: str = ""

    def build_store(self):
        return DurableStore(ShardedTSDB(self.tsdb_shards), self.wal_path)


class CityPipeline(Workload):
    """Both pilot cities live: sensors → LoRaWAN → MQTT → dataport →
    regional hub → journaled 4-shard store.  One op = one simulated hour."""

    name = "city_pipeline"

    def before_setup(self, k: int) -> None:
        self.wal = self.work / f"city-{k}.wal"
        self.wal.unlink(missing_ok=True)

    def setup(self) -> None:
        config = _JournaledConfig(
            seed=self.seed,
            tsdb_shards=inputs.SHARDS,
            cities=(CityPolicy("trondheim"), CityPolicy("vejle")),
            wal_path=str(self.wal),
        )
        self.eco = CttEcosystem(
            [trondheim_deployment(seed=7 + self.seed),
             vejle_deployment(seed=13 + self.seed)],
            config=config,
        )
        self._closed = False
        now = self.eco.now
        start = now - int(self.sizes.backfill_days * DAY)
        self.backfilled = sum(
            repro.core.scenarios.backfill_history(city, start, now)
            for city in self.eco.cities.values()
        )
        self.eco.start()

    def op(self, i: int) -> tuple[float, int]:
        hub = self.eco.hub.stats
        before = hub.flushed_points
        t0 = time.perf_counter()
        self.eco.run(HOUR)
        return time.perf_counter() - t0, hub.flushed_points - before

    def journal_bytes_per_point(self) -> float:
        return self.wal.stat().st_size / self.eco.db.exact_point_count()

    def layer_stats(self) -> dict[str, int]:
        snap = self.eco.hub.stats_snapshot()
        blocks, size = _journal_stats(self.wal)
        return {
            "region.flushes": snap["hub"]["flushes"],
            "region.high_watermark": max(
                c["high_watermark"] for c in snap["cities"].values()
            ),
            "journal.blocks": blocks,
            "journal.bytes": size,
        }

    def _close(self) -> None:
        if not self._closed:
            self._closed = True
            self.eco.db.close()
            self.eco.db.wrapped.close()

    def check(self) -> list[str]:
        eco = self.eco
        eco.flush_region()
        snap = eco.hub.stats_snapshot()
        stored = eco.db.exact_point_count()
        written = sum(c.dataport.stats.points_written for c in eco.cities.values())
        self._close()
        live = repro.tsdb.persistence.dumps(eco.db.wrapped, format="binary")
        replayed = repro.tsdb.persistence.dumps(
            repro.tsdb.persistence.load(self.wal, into=TSDB()), format="binary"
        )
        errors = (
            reference.check_hub(snap)
            + reference.check_conservation(stored, self.backfilled, written)
            + reference.check_replay(live, replayed)
        )
        return errors + reference.smoke([
            ("hub snapshot", reference.check_hub, (reference.perturbed_snapshot(snap),)),
            ("point count", reference.check_conservation,
             (stored + 1, self.backfilled, written)),
            ("WAL replay", reference.check_replay,
             (live, reference.perturbed_bytes(replayed))),
        ])

    def teardown(self) -> None:
        self._close()
        self.eco = None
        self.wal.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# dashboards
# ---------------------------------------------------------------------------


class _Served:
    """A store behind an in-process QueryServer on its own event loop
    thread, and one client connected to it."""

    def __init__(self, store) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-serve", daemon=True
        )
        self.thread.start()
        self.server = QueryServer(store)
        host, port = self._call(self.server.start())
        self.client = QueryClient(host, port, timeout=120.0, retries=0)

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=60)

    def request(self, batch: list, *, refresh: bool = False):
        """One batched request; returns the decoded results.  A wire error
        reply raises ``RemoteQueryError``: a failed operation."""
        return repro.tsdb.wire.decode_response(
            self.client.request(batch, refresh=refresh)
        )

    async def _shutdown(self) -> None:
        await self.server.stop(timeout=30)
        me = asyncio.current_task()
        rest = [t for t in asyncio.all_tasks() if t is not me]
        if rest:
            await asyncio.wait(rest, timeout=10)
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)
        await self.loop.shutdown_default_executor()

    def close(self) -> None:
        self.client.close()
        self._call(self._shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()


class _PointCounter:
    """Stored points inside a query's range, counted from the inputs."""

    def __init__(self, history: inputs.History, rounds=None) -> None:
        self.history = history
        self.rounds = rounds
        self.csum = np.zeros((len(history.keys), history.ts.shape[0] + 1), np.int64)
        np.cumsum(history.present, axis=1, out=self.csum[:, 1:])
        self._members: dict = {}

    def _series(self, q) -> np.ndarray:
        probe = (q.metric, tuple(sorted(q.tags.items())))
        idx = self._members.get(probe)
        if idx is None:
            idx = self._members[probe] = np.array([
                i for i, k in enumerate(self.history.keys)
                if k.metric == q.metric and all(k.tag(t) == v for t, v in q.tags.items())
            ], np.intp)
        return idx

    def batch(self, batch: list) -> int:
        total = 0
        for q in batch:
            for sub in (dict(q.operands).values() if isinstance(q, ExprQuery) else (q,)):
                idx = self._series(sub)
                ts = self.history.ts
                lo = np.searchsorted(ts, sub.start, side="left")
                hi = np.searchsorted(ts, sub.end, side="right")
                total += int((self.csum[idx, hi] - self.csum[idx, lo]).sum())
                if self.rounds is not None:
                    r = np.asarray(self.rounds.ts)
                    total += idx.shape[0] * int(((r >= sub.start) & (r <= sub.end)).sum())
        return total


class _Dashboard(Workload):
    """The served month of both cities; subclasses pick the traffic."""

    rounds = None  # live sampling rounds written after the history

    def prepare(self) -> None:
        self.base = self.work / "dashboards.wal"
        # A child process builds it, so it never sets this process's peak
        # memory; the child imports from this process's path.
        subprocess.run(
            [sys.executable, "-c",
             "from perfbench.inputs import write_history_journal; "
             f"write_history_journal({self.seed}, {self.sizes.history_days!r}, "
             f"{str(self.base)!r})"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
            check=True, timeout=600,
        )
        self.history = inputs.make_history(self.seed, self.sizes.history_days)
        self.window = int(self.sizes.window_days * DAY)

    def before_setup(self, k: int) -> None:
        self.samples: list = []
        self.last = None

    def _restore(self, path: Path):
        store = ShardedTSDB(inputs.SHARDS)
        repro.tsdb.persistence.load(path, into=store, mmap=True)
        return store

    def journal_bytes_per_point(self) -> float:
        return self.path.stat().st_size / self.store.exact_point_count()

    def layer_stats(self) -> dict[str, int]:
        stats = self.served.server.stats()
        blocks, size = _journal_stats(self.path)
        return {
            "cache.hits": stats["cache"]["hits"],
            "cache.misses": stats["cache"]["misses"],
            "refresh.incremental": stats["refresh"]["incremental_runs"],
            "refresh.full": stats["refresh"]["full_runs"],
            "journal.blocks": blocks - self.journal0[0],
            "journal.bytes": size - self.journal0[1],
        }

    def _keep(self, i: int, batch: list, results) -> None:
        entry = (i, batch, reference.from_wire(results))
        if i % SAMPLE_EVERY == 0:
            self.samples.append(entry)
        self.last = entry

    def check(self) -> list[str]:
        data = reference.history_data(self.history, self.rounds)
        kept = self.samples + ([self.last] if self.last[0] % SAMPLE_EVERY else [])
        errors = []
        for i, batch, observed in kept:
            errors += reference.compare_batch(
                reference.expected_batch(data, batch), observed, f"op {i}"
            )
        i, batch, observed = kept[0]
        expected = reference.expected_batch(data, batch)
        return errors + reference.smoke([
            ("dashboard answer", reference.compare_batch,
             (expected, reference.perturbed_batch(observed), "smoke")),
        ])

    def teardown(self) -> None:
        self.served.close()
        self.store.close()
        self.served = self.store = None


class DashboardCold(_Dashboard):
    """Every request asks for a window not asked before: no cache help."""

    name = "dashboard_cold"

    def prepare(self) -> None:
        super().prepare()
        self.path = self.base
        self.journal0 = _journal_stats(self.base)
        grid = self.history.ts
        n_starts = grid.shape[0] - self.window // inputs.STEP_S
        rng = np.random.default_rng([self.seed, 21])
        self.starts = grid[rng.permutation(n_starts)]
        self.counter = _PointCounter(self.history)

    def setup(self) -> None:
        self.store = self._restore(self.base)
        self.served = _Served(self.store)
        # Off the 5-minute grid, so no timed window repeats it.
        end = int(self.history.ts[-1])
        start = end - self.window - inputs.STEP_S // 2
        self.served.request(inputs.wall_batch(start, start + self.window - 1))

    def op(self, i: int) -> tuple[float, int]:
        start = int(self.starts[i % self.starts.shape[0]])
        batch = inputs.wall_batch(start, start + self.window - 1)
        points = self.counter.batch(batch)
        t0 = time.perf_counter()
        results = self.served.request(batch)
        latency = time.perf_counter() - t0
        self._keep(i, batch, results)
        return latency, points


class DashboardLive(_Dashboard):
    """A write round, then an incremental refresh of the slid window."""

    name = "dashboard_live"

    def before_setup(self, k: int) -> None:
        super().before_setup(k)
        self.path = self.work / f"live-{k}.wal"
        shutil.copyfile(self.base, self.path)
        self.journal0 = _journal_stats(self.path)
        self.rounds = inputs.LiveRounds(self.seed, self.history)
        self.counter = _PointCounter(self.history, self.rounds)

    def _window(self) -> tuple[int, int]:
        end = self.rounds.ts[-1] if self.rounds.ts else int(self.history.ts[-1])
        return inputs.hour_floor(end - self.window), end

    def setup(self) -> None:
        self.store = self._restore(self.path)
        self.durable = DurableStore(self.store, self.path)
        self.served = _Served(self.durable)
        self.served.request(inputs.wall_batch(*self._window(), with_expr=False),
                            refresh=True)

    def op(self, i: int) -> tuple[float, int]:
        self.durable.put_batch(self.rounds.next_batch())
        batch = inputs.wall_batch(*self._window(), with_expr=False)
        points = self.counter.batch(batch)
        t0 = time.perf_counter()
        results = self.served.request(batch, refresh=True)
        latency = time.perf_counter() - t0
        self._keep(i, batch, results)
        return latency, points

    def teardown(self) -> None:
        super().teardown()
        self.durable.close()
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# journal_restart
# ---------------------------------------------------------------------------


class JournalRestart(Workload):
    """Crash restart: replay a compacted-head, fragmented-tail journal into
    a fresh 4-shard store, then answer the first dashboard batch."""

    name = "journal_restart"

    def prepare(self) -> None:
        self.journal = inputs.make_journal(self.seed, self.sizes)
        end = self.journal.last_ts
        start = inputs.hour_floor(end - self.sizes.restart_window_hours * HOUR)
        self.batch = inputs.wall_batch(start, end)
        self.db = None
        self.first = None

    def before_setup(self, k: int) -> None:
        self.path = self.work / f"journal-{k}.wal"
        self.path.unlink(missing_ok=True)

    def setup(self) -> None:
        store = DurableStore(ShardedTSDB(inputs.SHARDS), self.path)
        for key, ts, vals in self.journal.head.columns():
            store.put_series(key.metric, ts, vals, key.tag_dict())
        with store.suspend_wal() as wal:
            repro.tsdb.tier.compact.compact_log(wal)
        for item in self.journal.tail:
            if isinstance(item, tuple):
                store.delete_before(item[1])
            else:
                store.put_batch(item)
        store.close()
        store.wrapped.close()

    def op(self, i: int) -> tuple[float, int]:
        if self.db is not None:
            self.db.close()
        db = ShardedTSDB(inputs.SHARDS)
        t0 = time.perf_counter()
        repro.tsdb.persistence.load(self.path, into=db, mmap=True)
        results = db.run_many(self.batch)
        latency = time.perf_counter() - t0
        self.db, self.results = db, results
        if self.first is None:
            self.first = reference.from_local(results)
        return latency, self.journal.written_points

    def journal_bytes_per_point(self) -> float:
        return self.path.stat().st_size / self.db.exact_point_count()

    def layer_stats(self) -> dict[str, int]:
        blocks, size = _journal_stats(self.path)
        return {"journal.blocks": blocks, "journal.bytes": size}

    def check(self) -> list[str]:
        data = reference.journal_data(self.journal)
        counts = reference.store_counts_sums(self.db)
        expected = reference.expected_batch(data, self.batch)
        last = reference.from_local(self.results)
        errors = (
            reference.compare_counts_sums(data, counts, "restored store")
            + reference.compare_batch(expected, self.first, "first restart")
            + reference.compare_batch(expected, last, "last restart")
        )
        return errors + reference.smoke([
            ("restored store", reference.compare_counts_sums,
             (data, reference.perturbed_counts(counts), "smoke")),
            ("restart answer", reference.compare_batch,
             (expected, reference.perturbed_batch(last), "smoke")),
        ])

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
        self.db = self.results = self.first = None
        self.path.unlink(missing_ok=True)


WORKLOADS = {
    w.name: w for w in (CityPipeline, DashboardCold, DashboardLive, JournalRestart)
}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed loop saw."""

    latencies: list
    rounds: list  # wall time of each op including its pre-op work
    points: int
    attempted: int
    failed: int
    elapsed: float
    journal_bpp: float | None
    peak_rss_mb: float | None
    calibration: list  # seconds of each calibration job, one per op
    errors: list


def _loop(wl: Workload, *, seconds: float | None = None, ops: int | None = None,
          tracer: Tracer | None = None) -> Phase:
    """Run whole operations until ``seconds`` pass or ``ops`` are done.

    With a ``tracer``, spans are recorded on even operations only: the
    odd ones, interleaved with them, are the untraced baseline the
    tracing overhead is measured against.
    """
    latencies, rounds, errors, calibration = [], [], [], []
    points = attempted = failed = 0
    jbp = peak = None
    paused = 0.0
    start = time.perf_counter()
    while True:
        t_pause = time.perf_counter()
        calibration.append(_calibration_job())
        paused += time.perf_counter() - t_pause
        if tracer is not None:
            tracer.op = attempted
            tracer.recording = attempted % 2 == 0
        attempted += 1
        t0 = time.perf_counter()
        try:
            latency, n = wl.op(attempted - 1)
        except Exception as exc:  # any failing op is counted, not fatal
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(latency)
            points += n
        rounds.append(time.perf_counter() - t0)
        if attempted == CHECKPOINT_OPS:
            t_pause = time.perf_counter()
            peak = _peak_rss_mb()
            jbp = wl.journal_bytes_per_point()
            paused += time.perf_counter() - t_pause
        now = time.perf_counter()
        if ops is not None and attempted >= ops:
            break
        if seconds is not None and now - start - paused >= seconds:
            break
    elapsed = time.perf_counter() - start - paused
    if jbp is None:
        peak = _peak_rss_mb()
        jbp = wl.journal_bytes_per_point() if latencies else None
    return Phase(latencies, rounds, points, attempted, failed, elapsed, jbp, peak,
                 calibration, errors)


def _setups(wl: Workload, count: int) -> tuple[list[float], list[float]]:
    """Set up ``count`` times; returns the set-up and calibration times."""
    times, calibration = [], []
    for k in range(count):
        if k:
            wl.teardown()
        wl.before_setup(k)
        gc.collect()
        calibration.append(_calibration_job())
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times, calibration


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def run(name: str, seed: int, seconds: float, *, trace: bool = False,
        sizes: inputs.Sizes = inputs.FULL, work_root: Path,
        spans_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record).

    The result carries the end-to-end metrics, or with ``trace`` the
    per-layer metrics of a second, traced phase (one set-up plus a fixed
    number of operations) run after the untraced measurement.
    """
    work = work_root / f"{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, sizes, work)
        wl.prepare()
        setup_times, calibration = _setups(wl, sizes.setups)
        phase = _loop(wl, seconds=seconds)
        errors = phase.errors + wl.check()
        wl.teardown()
        attempted, failed = phase.attempted, phase.failed
        lat_ms = [x * 1e3 for x in phase.latencies]
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": (phase.attempted - phase.failed) / phase.elapsed,
            "points_per_s": phase.points / phase.elapsed,
            "op_p50_ms": _percentile(lat_ms, 50),
            "op_p90_ms": _percentile(lat_ms, 90),
        }
        calibration_s = statistics.median(calibration + phase.calibration)
        scale = CALIBRATION_REF_S / calibration_s  # > 1 on a faster host
        metrics = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "points_per_s": (raw["points_per_s"] / scale, "points/s"),
            "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
            "op_p90_ms": (raw["op_p90_ms"] * scale, "ms"),
            "peak_rss_mb": (phase.peak_rss_mb, "MB"),
            "journal_bytes_per_point": (phase.journal_bpp, "B/point"),
        }
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "attempted": attempted,
            "failed": failed,
            "ops_measured": len(lat_ms),
            "setup_s_each": setup_times,
            "calibration_s": calibration_s,
            "wall_clock": raw,
            "end_to_end": {k: v for k, (v, _) in metrics.items()},
        }
        if trace:
            traced, t_errors, t_attempted, t_failed = _traced(
                wl, sizes.trace_ops[name], spans_dir, seed
            )
            metrics = traced
            errors += t_errors
            attempted += t_attempted
            failed += t_failed
            record["attempted"], record["failed"] = attempted, failed
        record["errors"] = errors
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(wl: Workload, n_ops: int, spans_dir, seed: int):
    """One traced set-up plus ``n_ops`` traced operations (interleaved with
    as many untraced ones); returns the per-layer metrics."""
    from .tracing import metric_units

    tracer = Tracer()
    tracer.install()
    try:
        wl.before_setup(0)
        gc.collect()
        tracer.op = "setup"
        tracer.recording = True
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        phase = _loop(wl, ops=2 * n_ops, tracer=tracer)
        tracer.recording = False
        stats = wl.layer_stats()
        errors = phase.errors + wl.check()
        wl.teardown()
    finally:
        tracer.recording = False
        tracer.uninstall()
    values = tracer.layer_metrics()
    values.update({k: 0 for k in WORKLOAD_STATS})
    values.update(stats)
    traced = statistics.median(phase.rounds[0::2])
    untraced = statistics.median(phase.rounds[1::2])
    values.update({
        "trace.ops": len(phase.rounds[0::2]),
        "trace.setup_s": setup_s,
        "trace.ops_per_s": 1.0 / traced,
        "trace.untraced_ops_per_s": 1.0 / untraced,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    })
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"spans-{wl.name}-seed{seed}.json.gz")
    units = metric_units()
    metrics = {k: (values[k], units[k]) for k in units}
    return metrics, errors, phase.attempted, phase.failed

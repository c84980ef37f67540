"""Seeded inputs: the dashboards' stored month, the live sampling rounds,
the fragmented restart journal, and the wall display's panel batch.

Everything here is a pure function of the seed and a :class:`Sizes`
preset, built with numpy; the program under test only ever receives the
generated points.  The shapes mirror the two pilot deployments: 12
Trondheim nodes and 2 Vejle nodes, each reporting the 8 node metrics
(7 channels plus battery) every 5 minutes, plus one jam-factor series
per city.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simclock import CTT_EPOCH, DAY, HOUR
from repro.tsdb import (
    METRIC_BATTERY,
    METRIC_CO2,
    METRIC_HUMIDITY,
    METRIC_JAM_FACTOR,
    METRIC_NO2,
    METRIC_PM10,
    METRIC_PM25,
    METRIC_PRESSURE,
    METRIC_TEMPERATURE,
    DurableStore,
    PointBatch,
    Query,
    SeriesKey,
    ShardedTSDB,
    compact_log,
    expr,
)

CITIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("trondheim", tuple(f"ctt-tr-{i:02d}" for i in range(1, 13))),
    ("vejle", ("ctt-vj-01", "ctt-vj-02")),
)
NODE_METRICS = (
    METRIC_CO2,
    METRIC_NO2,
    METRIC_PM10,
    METRIC_PM25,
    METRIC_TEMPERATURE,
    METRIC_PRESSURE,
    METRIC_HUMIDITY,
    METRIC_BATTERY,
)
#: (base level, diurnal amplitude, noise sigma) per metric.
_LEVELS = {
    METRIC_CO2: (410.0, 35.0, 8.0),
    METRIC_NO2: (24.0, 14.0, 4.0),
    METRIC_PM10: (18.0, 7.0, 3.0),
    METRIC_PM25: (9.0, 4.0, 1.5),
    METRIC_TEMPERATURE: (5.0, 4.0, 0.6),
    METRIC_PRESSURE: (1010.0, 2.0, 0.4),
    METRIC_HUMIDITY: (76.0, -10.0, 2.0),
    METRIC_BATTERY: (3.95, 0.05, 0.01),
    METRIC_JAM_FACTOR: (3.0, 2.5, 0.8),
}
STEP_S = 300  # the nodes' 5-minute sampling cadence
SHARDS = 4  # every store in the benchmark is a 4-shard ShardedTSDB
#: Share of samples lost on the radio path (delivery runs ~0.99 per node).
LOSS = 0.01
#: The wall's panels bucket hourly.
BUCKET = "1h"


@dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are; FULL is the benchmark, SMALL
    the seconds-long variant the benchmark's own tests run."""

    backfill_days: float  # city_pipeline: hourly history written at set-up
    history_days: int  # dashboards: stored history at 5-minute cadence
    window_days: float  # dashboards: range each panel asks for
    head_days: float  # journal_restart: compacted head
    tail_hours: float  # journal_restart: fragmented hub-flush tail
    marker_every_min: int  # journal_restart: retention marker cadence
    restart_window_hours: int  # journal_restart: first batch's range
    setups: int  # set-ups per run; setup_s is their median
    trace_ops: dict  # workload -> traced operations


FULL = Sizes(
    backfill_days=7,
    history_days=30,
    window_days=14,
    head_days=2,
    tail_hours=3,
    marker_every_min=60,
    restart_window_hours=24,
    setups=5,
    trace_ops={
        "city_pipeline": 24,
        "dashboard_cold": 48,
        "dashboard_live": 48,
        "journal_restart": 32,
    },
)
SMALL = Sizes(
    backfill_days=0.5,
    history_days=3,
    window_days=1,
    head_days=0.5,
    tail_hours=0.5,
    marker_every_min=10,
    restart_window_hours=6,
    setups=1,
    trace_ops={
        "city_pipeline": 1,
        "dashboard_cold": 2,
        "dashboard_live": 2,
        "journal_restart": 2,
    },
)


def series_keys() -> list[SeriesKey]:
    """Every stored series, in a fixed order: per city, per node, the 8
    node metrics, then the city's jam-factor series."""
    keys = []
    for city, nodes in CITIES:
        for node in nodes:
            for metric in NODE_METRICS:
                keys.append(SeriesKey.make(metric, {"city": city, "node": node}))
        keys.append(SeriesKey.make(METRIC_JAM_FACTOR, {"city": city, "segment": "main"}))
    return keys


def _levels(keys: list[SeriesKey], rng: np.random.Generator) -> np.ndarray:
    """(n_series, 3) per-series base/amplitude/sigma, with a per-node offset."""
    out = np.array([_LEVELS[k.metric] for k in keys])
    out[:, 0] *= rng.uniform(0.93, 1.07, len(keys))
    return out


def _diurnal(ts: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * ((ts % DAY) / DAY - 0.3))


def _values(levels: np.ndarray, ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n_series, n_ts) samples: level + diurnal swing + noise."""
    noise = rng.standard_normal((levels.shape[0], ts.shape[0]))
    return levels[:, :1] + levels[:, 1:2] * _diurnal(ts)[None, :] + levels[:, 2:3] * noise


def _row_values(levels: np.ndarray, ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One sample per row: row i is series ``levels[i]`` at ``ts[i]``."""
    noise = rng.standard_normal(ts.shape[0])
    return levels[:, 0] + levels[:, 1] * _diurnal(ts) + levels[:, 2] * noise


@dataclass
class History:
    """Points on a shared 5-minute grid; ``present`` drops the lost ones."""

    keys: list[SeriesKey]
    ts: np.ndarray  # (n,) int64 grid
    values: np.ndarray  # (n_series, n) float64
    present: np.ndarray  # (n_series, n) bool

    @property
    def points(self) -> int:
        return int(self.present.sum())

    def columns(self):
        """``(key, timestamps, values)`` of each series' present points."""
        for i, key in enumerate(self.keys):
            mask = self.present[i]
            yield key, self.ts[mask], self.values[i, mask]


def make_history(seed: int, days: float, start: int = CTT_EPOCH) -> History:
    rng = np.random.default_rng([seed, 11])
    keys = series_keys()
    n = int(round(days * DAY / STEP_S))
    ts = start + STEP_S * np.arange(n, dtype=np.int64)
    values = _values(_levels(keys, rng), ts, rng)
    present = rng.random(values.shape) >= LOSS
    return History(keys, ts, values, present)


def write_history_journal(seed: int, days: float, path: str) -> None:
    """Journal the history through a DurableStore, then compact it: the
    dashboards' restore source."""
    history = make_history(seed, days)
    store = DurableStore(ShardedTSDB(SHARDS), path)
    for key, ts, vals in history.columns():
        store.put_series(key.metric, ts, vals, key.tag_dict())
    store.close()
    store.wrapped.close()
    compact_log(path)


class LiveRounds:
    """The dashboard_live writes: one sample per series every 5 minutes
    after the history ends, drawn from the seed on demand."""

    def __init__(self, seed: int, history: History) -> None:
        self.keys = history.keys
        self._rng = np.random.default_rng([seed, 12])
        self._levels = _levels(self.keys, np.random.default_rng([seed, 11]))
        self._next = int(history.ts[-1]) + STEP_S
        self._key_idx = np.arange(len(self.keys), dtype=np.intp)
        self.ts: list[int] = []
        self.values: list[np.ndarray] = []

    def next_batch(self) -> PointBatch:
        t = self._next
        self._next += STEP_S
        vals = _values(self._levels, np.array([t], np.int64), self._rng)[:, 0]
        self.ts.append(t)
        self.values.append(vals)
        return PointBatch(
            tuple(self.keys), self._key_idx, np.full(len(self.keys), t, np.int64), vals
        )


# ---------------------------------------------------------------------------
# The restart journal
# ---------------------------------------------------------------------------


@dataclass
class Journal:
    """A ``serve --wal --compact-every`` style journal, as inputs.

    ``head`` is written series by series and compacted; ``tail`` is what
    the regional hub appends afterwards: one small block per city per
    60-second flush, with a ``delete_before`` marker every
    ``marker_every_min`` minutes (``("delete_before", cutoff)``).  For
    the reference replay, ``series``/``ts``/``values``/``order`` hold
    every written point (series index, timestamp, value, write order)
    and ``markers`` every ``(write order, cutoff)``.
    """

    head: History
    tail: list  # PointBatch | ("delete_before", cutoff)
    series: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    order: np.ndarray
    markers: list[tuple[int, int]]

    @property
    def written_points(self) -> int:
        return int(self.ts.shape[0])

    @property
    def last_ts(self) -> int:
        return int(self.ts.max())


def make_journal(seed: int, sizes: Sizes) -> Journal:
    head = make_history(seed, sizes.head_days)
    keys = head.keys
    index = {k: i for i, k in enumerate(keys)}
    rng = np.random.default_rng([seed, 13])
    levels = _levels(keys, np.random.default_rng([seed, 11]))
    retention_s = int(sizes.head_days * DAY * 0.75)

    parts_series, parts_ts, parts_vals, parts_order = [], [], [], []
    order = 0
    for i in range(len(keys)):
        mask = head.present[i]
        n = int(mask.sum())
        parts_series.append(np.full(n, i, np.intp))
        parts_ts.append(head.ts[mask])
        parts_vals.append(head.values[i, mask])
        parts_order.append(np.full(n, order, np.int64))
        order += 1

    # Per-city node phases, as CityEcosystem.start staggers them.
    city_rows = []
    for city, nodes in CITIES:
        rows = [
            ((k * 17) % STEP_S, [index[SeriesKey.make(m, {"city": city, "node": node})]
                                 for m in NODE_METRICS])
            for k, node in enumerate(nodes)
        ]
        jam = index[SeriesKey.make(METRIC_JAM_FACTOR, {"city": city, "segment": "main"})]
        city_rows.append((rows, jam))

    tail: list = []
    markers: list[tuple[int, int]] = []
    t_start = int(head.ts[-1]) + STEP_S
    for minute in range(int(round(sizes.tail_hours * 60))):
        lo = t_start + 60 * minute
        hi = lo + 60
        for rows, jam in city_rows:
            idx: list[int] = []
            ts: list[int] = []
            for phase, members in rows:
                t = lo + (phase - lo) % STEP_S
                if t < hi:
                    idx.extend(members)
                    ts.extend([t] * len(members))
            if lo % STEP_S == 0:
                idx.append(jam)
                ts.append(lo)
            if not idx:
                continue
            sel = np.array(idx, np.intp)
            t_arr = np.array(ts, np.int64)
            vals = _row_values(levels[sel], t_arr, rng)
            local = {k: j for j, k in enumerate(dict.fromkeys(idx))}
            tail.append(
                PointBatch(
                    tuple(keys[k] for k in local),
                    np.array([local[k] for k in idx], np.intp),
                    t_arr,
                    vals,
                )
            )
            parts_series.append(sel)
            parts_ts.append(t_arr)
            parts_vals.append(vals)
            parts_order.append(np.full(len(idx), order, np.int64))
            order += 1
        if (minute + 1) % sizes.marker_every_min == 0:
            cutoff = hi - retention_s
            tail.append(("delete_before", cutoff))
            markers.append((order, cutoff))
            order += 1

    return Journal(
        head=head,
        tail=tail,
        series=np.concatenate(parts_series),
        ts=np.concatenate(parts_ts),
        values=np.concatenate(parts_vals),
        order=np.concatenate(parts_order),
        markers=markers,
    )


# ---------------------------------------------------------------------------
# The wall display's batch
# ---------------------------------------------------------------------------


def wall_batch(start: int, end: int, *, with_expr: bool = True) -> list:
    """The Fig. 6/8 wall for both cities as one batch.

    Per city: CO2 city mean, NO2 per node, PM2.5 spread across nodes
    (``dev``), PM10 worst node (``max``), temperature per node (hourly
    max) and the jam factor; plus the regional dashboard's
    city-minus-baseline CO2 expression.
    """
    avg, mx = f"{BUCKET}-avg", f"{BUCKET}-max"
    batch: list = []
    for city, _ in CITIES:
        tags = {"city": city}
        batch += [
            Query(METRIC_CO2, start, end, tags=tags, downsample=avg),
            Query(METRIC_NO2, start, end, tags=tags, downsample=avg, group_by=("node",)),
            Query(METRIC_PM25, start, end, tags=tags, aggregator="dev", downsample=avg),
            Query(METRIC_PM10, start, end, tags=tags, aggregator="max", downsample=mx),
            Query(METRIC_TEMPERATURE, start, end, tags=tags, downsample=mx,
                  group_by=("node",)),
            Query(METRIC_JAM_FACTOR, start, end, tags=tags, downsample=avg),
        ]
    if with_expr:
        batch.append(
            expr(
                "city - baseline",
                city=Query(METRIC_CO2, start, end, downsample=avg, group_by=("city",)),
                baseline=Query(METRIC_CO2, start, end, downsample=avg),
            )
        )
    return batch


def hour_floor(t: int) -> int:
    return (int(t) // HOUR) * HOUR

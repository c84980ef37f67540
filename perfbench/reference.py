"""Correctness checks computed apart from the program.

The reference answers come from the generated numpy arrays alone: the
program's planner, catalog, aggregators and codecs are never called.
Every checker returns a list of error strings (empty = pass), so the
benchmark can run each one on a deliberately perturbed answer and
expect it to complain (the ``perturbed_*`` helpers and :func:`smoke`).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.tsdb import ExprQuery, Query

#: Floating-point agreement between the program and numpy: the planner
#: sums and centres in its own order, so results match to rounding only.
RTOL = 1e-9
ATOL = 1e-9

_BUCKET_S = {"s": 1, "m": 60, "h": 3600, "d": 86400}


# ---------------------------------------------------------------------------
# Reference data sets: {SeriesKey: (sorted timestamps, values)}
# ---------------------------------------------------------------------------


def history_data(history, rounds=None) -> dict:
    """The dashboards' store as numpy sees it: the history's delivered
    points plus any live rounds appended after it."""
    data = {}
    extra_ts = np.array(rounds.ts if rounds is not None else [], np.int64)
    extra_vals = (
        np.array(rounds.values).T if rounds is not None and rounds.values else None
    )
    for i, (key, ts, vals) in enumerate(history.columns()):
        if extra_vals is not None:
            ts = np.concatenate([ts, extra_ts])
            vals = np.concatenate([vals, extra_vals[i]])
        data[key] = (ts, vals)
    return data


def journal_data(journal) -> dict:
    """What replaying the journal must leave: every written point that no
    later ``delete_before`` marker cut off (a marker drops ``ts < cutoff``
    from whatever was written before it)."""
    later_cutoff = np.full(journal.order.shape[0], np.iinfo(np.int64).min)
    for order, cutoff in journal.markers:
        hit = journal.order < order
        later_cutoff[hit] = np.maximum(later_cutoff[hit], cutoff)
    keep = journal.ts >= later_cutoff
    data = {}
    series, ts, vals = journal.series[keep], journal.ts[keep], journal.values[keep]
    for i, key in enumerate(journal.head.keys):
        mask = series == i
        if not mask.any():
            continue
        order = np.argsort(ts[mask], kind="stable")
        data[key] = (ts[mask][order], vals[mask][order])
    return data


# ---------------------------------------------------------------------------
# Dashboard answers
# ---------------------------------------------------------------------------


def _reduce(agg: str, matrix: np.ndarray) -> np.ndarray:
    """Column-wise reduction over the present (non-NaN) entries."""
    present = ~np.isnan(matrix)
    counts = present.sum(axis=0)
    filled = np.where(present, matrix, 0.0)
    if agg == "avg":
        return filled.sum(axis=0) / counts
    if agg == "max":
        return np.where(present, matrix, -np.inf).max(axis=0)
    if agg == "dev":
        mean = filled.sum(axis=0) / counts
        centred = np.where(present, matrix - mean, 0.0)
        return np.sqrt((centred * centred).sum(axis=0) / counts)
    raise ValueError(f"reference has no aggregator {agg!r}")


def _across(slices: list, agg: str) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate several series per instant over the union of their
    timestamps (each instant sees the series with a point exactly there)."""
    slices = [(ts, v) for ts, v in slices if ts.shape[0]]
    if not slices:
        return np.empty(0, np.int64), np.empty(0)
    union = np.unique(np.concatenate([ts for ts, _ in slices]))
    matrix = np.full((len(slices), union.shape[0]), np.nan)
    for row, (ts, v) in enumerate(slices):
        matrix[row, np.searchsorted(union, ts)] = v
    return union, _reduce(agg, matrix)


def _buckets(ts: np.ndarray, vals: np.ndarray, spec: str):
    """Epoch-aligned buckets holding points; the bucket's start labels it."""
    width_s, agg = spec.split("-")[:2]
    width = int(width_s[:-1]) * _BUCKET_S[width_s[-1]]
    if ts.shape[0] == 0:
        return ts, vals
    bucket = (ts // width) * width
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
    if agg == "avg":
        out = np.add.reduceat(vals, starts) / np.diff(np.r_[starts, ts.shape[0]])
    elif agg == "max":
        out = np.maximum.reduceat(vals, starts)
    else:
        raise ValueError(f"reference has no bucket aggregator {agg!r}")
    return bucket[starts], out


def _query(data: dict, q: Query) -> list:
    """``[(group tags, ts, values), ...]`` in sorted group order."""
    groups: dict = {}
    for key in sorted(data, key=str):
        if key.metric != q.metric:
            continue
        if any(key.tag(t) != v for t, v in q.tags.items()):
            continue
        label = tuple(sorted((g, key.tag(g)) for g in q.group_by))
        ts, vals = data[key]
        lo = np.searchsorted(ts, q.start, side="left")
        hi = np.searchsorted(ts, q.end, side="right")
        groups.setdefault(label, []).append((ts[lo:hi], vals[lo:hi]))
    out = []
    for label in sorted(groups):
        ts, vals = _across(groups[label], q.aggregator)
        if q.downsample:
            ts, vals = _buckets(ts, vals, q.downsample)
        out.append((dict(label), ts, vals))
    return out


def _expr(data: dict, eq: ExprQuery) -> list:
    if eq.formula != "city - baseline":
        raise ValueError(f"reference has no formula {eq.formula!r}")
    ops = dict(eq.operands)
    city = _query(data, ops["city"])
    (_, base_ts, base_vals), = _query(data, ops["baseline"])
    out = []
    for tags, ts, vals in city:
        union = np.unique(np.concatenate([ts, base_ts]))
        a = np.full(union.shape[0], np.nan)
        b = np.full(union.shape[0], np.nan)
        a[np.searchsorted(union, ts)] = vals
        b[np.searchsorted(union, base_ts)] = base_vals
        out.append((tags, union, a - b))
    return out


def expected_batch(data: dict, batch: list) -> list:
    """The reference answer to a dashboard batch, one entry per panel."""
    return [
        _expr(data, q) if isinstance(q, ExprQuery) else _query(data, q)
        for q in batch
    ]


def from_wire(results) -> list:
    """Decoded wire results (:class:`~repro.tsdb.wire.WireResult`) in the
    checkers' ``[(tags, ts, values), ...]`` form."""
    return [
        [(dict(s.tags), np.asarray(s.timestamps), np.asarray(s.values)) for s in r.series]
        for r in results
    ]


def from_local(results) -> list:
    """In-process ``run_many`` results in the checkers' form."""
    return [
        [(dict(s.group_tags), s.slice.timestamps, s.slice.values) for s in r.series]
        for r in results
    ]


def compare_batch(expected: list, observed: list, label: str) -> list[str]:
    errors: list[str] = []
    if len(expected) != len(observed):
        return [f"{label}: {len(observed)} results, expected {len(expected)}"]
    for i, (exp, obs) in enumerate(zip(expected, observed)):
        if len(exp) != len(obs):
            errors.append(f"{label} panel {i}: {len(obs)} series, expected {len(exp)}")
            continue
        for (etags, ets, evals), (otags, ots, ovals) in zip(exp, obs):
            where = f"{label} panel {i} {etags}"
            if etags != otags:
                errors.append(f"{where}: tags {otags}")
            elif ets.shape != ots.shape or not np.array_equal(ets, ots):
                errors.append(f"{where}: {ots.shape[0]} timestamps, expected {ets.shape[0]}")
            elif not np.allclose(ovals, evals, rtol=RTOL, atol=ATOL, equal_nan=True):
                worst = np.nanmax(np.abs(ovals - evals))
                errors.append(f"{where}: values differ by up to {worst:.3g}")
    return errors


# ---------------------------------------------------------------------------
# Store-level properties
# ---------------------------------------------------------------------------


def store_counts_sums(store) -> dict:
    """``{key: (points, sum of values)}`` read back from a store."""
    return {
        key: (len(sl), float(sl.values.sum())) for key, sl in store.iter_series()
    }


def compare_counts_sums(expected_data: dict, observed: dict, label: str) -> list[str]:
    expected = {
        k: (int(ts.shape[0]), float(v.sum())) for k, (ts, v) in expected_data.items()
    }
    errors = []
    if set(expected) != set(observed):
        missing = sorted(map(str, set(expected) - set(observed)))[:3]
        extra = sorted(map(str, set(observed) - set(expected)))[:3]
        errors.append(f"{label}: series missing {missing}, unexpected {extra}")
    for key in sorted(set(expected) & set(observed), key=str):
        (en, es), (on, os_) = expected[key], observed[key]
        if en != on:
            errors.append(f"{label} {key}: {on} points, expected {en}")
        elif not np.isclose(os_, es, rtol=RTOL, atol=ATOL):
            errors.append(f"{label} {key}: sum {os_!r}, expected {es!r}")
    return errors


def check_conservation(stored: int, backfilled: int, written: int) -> list[str]:
    if stored != backfilled + written:
        return [
            f"store holds {stored} points, but backfill wrote {backfilled} and "
            f"the dataports wrote {written}"
        ]
    return []


def check_hub(snapshot: dict) -> list[str]:
    return [
        f"hub lane {city}: {s['dropped_points']} dropped, {s['stalled_points']} "
        f"stalled, {s['queue_depth_points']} queued"
        for city, s in snapshot["cities"].items()
        if s["dropped_points"] or s["stalled_points"] or s["queue_depth_points"]
    ]


def check_replay(live: bytes, replayed: bytes) -> list[str]:
    if live != replayed:
        return [
            f"WAL replay differs from the live store ({len(replayed)} vs "
            f"{len(live)} dump bytes)"
        ]
    return []


# ---------------------------------------------------------------------------
# Perturbations for the smoke check
# ---------------------------------------------------------------------------


def perturbed_batch(observed: list) -> list:
    """A copy of an answer with one value nudged by far more than rounding."""
    out = copy.deepcopy(observed)
    for panel in out:
        for _, _, vals in panel:
            finite = np.flatnonzero(np.isfinite(vals))
            if finite.shape[0]:
                vals[finite[0]] += 1e-3 * max(1.0, abs(vals[finite[0]]))
                return out
    raise ValueError("no finite value to perturb")


def perturbed_counts(observed: dict) -> dict:
    out = dict(observed)
    key = min(out, key=str)
    n, s = out[key]
    out[key] = (n, s + 1.0)
    return out


def perturbed_snapshot(snapshot: dict) -> dict:
    out = copy.deepcopy(snapshot)
    lane = next(iter(out["cities"].values()))
    lane["dropped_points"] += 1
    return out


def perturbed_bytes(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


def smoke(checks: list) -> list[str]:
    """Run ``(name, checker, args)`` triples that must each report an
    error; return the names of those that wrongly passed."""
    return [f"smoke check passed a perturbed {name}" for name, fn, args in checks
            if not fn(*args)]

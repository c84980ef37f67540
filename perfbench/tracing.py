"""Per-layer spans, recorded from outside the program.

:class:`Tracer` swaps each layer's public entry point (a class method or
a module-level function of ``repro``) for a wrapper that records a span
— name, start, end, parent span, operation id, thread — and restores
the originals on :meth:`Tracer.uninstall`.  Nothing under ``src/``
changes.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of a run.

A span's parent is the innermost open span of the same thread, so work
handed to another thread (the server's executor, the shard fan-out
pool, the event loop) starts a root there; every span carries the
operation id the workload loop set when it started.  Self time is a
span's duration minus the durations of its children (same-thread
children never overlap).  Layer totals count only the outermost span of
a name, so nested calls of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import threading
import time
from collections import Counter, defaultdict

import repro.core
import repro.core.scenarios
import repro.serve.client
import repro.serve.server
import repro.tsdb
import repro.tsdb.persistence
import repro.tsdb.plan
import repro.tsdb.tier
import repro.tsdb.tier.compact
import repro.tsdb.wire
from repro.dataport import Dataport
from repro.lorawan import LoraDevice, NetworkServer
from repro.mqtt import Broker
from repro.region import CityIngress, RegionalHub
from repro.sensors import SensorNode
from repro.serve import QueryClient, QueryServer
from repro.serve.cache import ResultCache
from repro.serve.refresh import IncrementalRefresher
from repro.simclock import Scheduler
from repro.tsdb import TSDB, ShardedTSDB
from repro.tsdb.tier import DurableStore

#: Layer metric -> span name, summed over outermost spans (seconds).
TOTAL_S = {
    "sensors.read_s": "sensors.read",
    "sensors.backfill_s": "sensors.backfill",
    "lorawan.send_s": "lorawan.send",
    "region.enqueue_s": "region.enqueue",
    "region.flush_s": "region.flush",
    "tsdb.put_batch_s": "tsdb.put_batch",
    "tsdb.delete_s": "tsdb.delete",
    "segments.replay_s": "segments.replay",
    "tier.compact_s": "tier.compact",
    "catalog.match_s": "catalog.match",
    "plan.run_many_s": "plan.run_many",
    "plan.aggregate_s": "plan.aggregate",
    "cache.lookup_s": "cache.lookup",
    "refresh.run_s": "refresh.run",
    "serve.execute_s": "serve.execute",
    "wire.encode_s": "wire.encode",
    "wire.json_s": "wire.json",
    "client.roundtrip_s": "client.request",
    "client.json_s": "client.json",
    "client.decode_s": "client.decode",
}
#: Layer metric -> span name, summed self time (seconds).
SELF_S = {
    "lorawan.ingest_self_s": "lorawan.ingest",
    "mqtt.publish_self_s": "mqtt.publish",
    "dataport.self_s": "dataport.on_mqtt",
    "simclock.self_s": "simclock.run",
    "journal.append_s": "journal.append",
}
#: Layer metric -> span name, number of outermost spans.
CALLS = {
    "sensors.reads": "sensors.read",
    "mqtt.messages": "mqtt.publish",
    "dataport.uplinks": "dataport.on_mqtt",
}
#: Layer metric -> span name, summed per-span payload (outermost spans).
PAYLOAD = {
    "catalog.series_matched": "catalog.match",
    "tsdb.points": "tsdb.put_batch",
    "wire.response_bytes": "wire.json",
}
#: Counts the wrappers keep themselves.
COUNTERS = (
    "lorawan.uplinks_sent",
    "lorawan.uplinks_delivered",
    "segments.blocks",
    "segments.bytes_read",
    "tier.blocks_before",
    "tier.blocks_after",
    "tier.bytes_after",
)
#: Counts each workload reads off the program's own stats.
WORKLOAD_STATS = (
    "region.flushes",
    "region.high_watermark",
    "journal.blocks",
    "journal.bytes",
    "cache.hits",
    "cache.misses",
    "refresh.incremental",
    "refresh.full",
)
#: Whole-phase figures of the traced run itself, with their units.
TRACE = {
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.setup_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in (*TOTAL_S, *SELF_S, "serve.transport_s")}
    for name in (*CALLS, *PAYLOAD, *COUNTERS, *WORKLOAD_STATS):
        units[name] = "B" if "bytes" in name else "count"
    units.update(TRACE)
    return units


class _TimedJson:
    """Stand-in for a module's ``json`` reference whose encode/decode
    calls are spans; everything else is the real module."""

    def __init__(self, tracer: "Tracer", dumps_span: str | None, loads_span: str | None):
        self.dumps = (
            tracer.timed(dumps_span, json.dumps, payload=lambda a, k, r: len(r))
            if dumps_span else json.dumps
        )
        self.loads = tracer.timed(loads_span, json.loads) if loads_span else json.loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Span recorder plus the set of patches that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | str | None = None
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, *, payload=None, count=None):
        """``fn`` wrapped so each call is a span named ``name``.

        ``payload(args, kwargs, result)`` gives a number stored with the
        span; ``count(counter, args, kwargs, result)`` bumps counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[idx] = [name, start, end, parent, tracer.op,
                                     threading.get_ident(), 0]
            if payload is not None:
                tracer.spans[idx][6] = payload(args, kwargs, result)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _counted_iter(self, fn):
        """Wrap ``iter_segments``: count decoded blocks and bytes read."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(source, *args, **kwargs):
            if tracer.recording and isinstance(source, (str, os.PathLike)):
                tracer.counts["segments.bytes_read"] += os.path.getsize(source)
            for item in fn(source, *args, **kwargs):
                if tracer.recording:
                    tracer.counts["segments.blocks"] += 1
                yield item

        return wrapper

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        self._set(owner, attr, self.timed(name, getattr(owner, attr), **hooks))

    def patch_function(self, modules, attr: str, name: str, **hooks) -> None:
        """Wrap one function under every module that binds it by name."""
        wrapped = self.timed(name, getattr(modules[0], attr), **hooks)
        for module in modules:
            self._set(module, attr, wrapped)

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics are read at."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def uplink_sent(c, a, k, r):
            c["lorawan.uplinks_sent"] += r.uplink is not None

        def uplink_delivered(c, a, k, r):
            c["lorawan.uplinks_delivered"] += r is not None

        def compaction(c, a, k, r):
            c["tier.blocks_before"] += r.blocks_before
            c["tier.blocks_after"] += r.blocks_after
            c["tier.bytes_after"] += r.bytes_after

        # collection path
        self.patch(SensorNode, "read_channels", "sensors.read")
        self.patch_function([repro.core.scenarios, repro.core], "backfill_history",
                            "sensors.backfill")
        self.patch(LoraDevice, "send", "lorawan.send", count=uplink_sent)
        self.patch(NetworkServer, "ingest", "lorawan.ingest", count=uplink_delivered)
        self.patch(Broker, "publish", "mqtt.publish")
        self.patch(Dataport, "_on_mqtt", "dataport.on_mqtt")
        self.patch(CityIngress, "put_batch", "region.enqueue")
        self.patch(RegionalHub, "pump", "region.flush")
        self.patch(RegionalHub, "drain_all", "region.flush")
        self.patch(Scheduler, "run_for", "simclock.run")
        # storage
        self.patch(ShardedTSDB, "put_batch", "tsdb.put_batch",
                   payload=lambda a, k, r: len(a[1]))
        self.patch(ShardedTSDB, "delete_before", "tsdb.delete")
        for attr in ("put", "put_point", "put_batch", "delete_before",
                     "delete_series_before"):
            self.patch(DurableStore, attr, "journal.append")
        self.patch_function(
            [repro.tsdb.persistence, repro.tsdb, repro.tsdb.tier.compact],
            "load", "segments.replay",
        )
        self._set(repro.tsdb.persistence, "iter_segments",
                  self._counted_iter(repro.tsdb.persistence.iter_segments))
        self.patch_function(
            [repro.tsdb.tier.compact, repro.tsdb.tier, repro.tsdb],
            "compact_log", "tier.compact", count=compaction,
        )
        # query path
        n_matched = dict(payload=lambda a, k, r: len(r))
        self.patch(TSDB, "_match", "catalog.match", **n_matched)
        self.patch(ShardedTSDB, "_match", "catalog.match", **n_matched)
        self.patch_function([repro.tsdb.plan], "match_batch", "catalog.match",
                            payload=lambda a, k, r: sum(map(len, r)))
        self.patch(ShardedTSDB, "_run_unique_batch", "plan.run_many")
        self.patch_function([repro.tsdb.plan], "aggregate_across", "plan.aggregate")
        self.patch(ResultCache, "lookup", "cache.lookup")
        self.patch(IncrementalRefresher, "run", "refresh.run")
        # serving path
        self.patch(QueryServer, "_execute", "serve.execute")
        self.patch_function([repro.tsdb.wire], "encode_response", "wire.encode")
        self.patch_function([repro.tsdb.wire], "response_to_json", "wire.json",
                            payload=lambda a, k, r: len(r))
        self._set(repro.serve.server, "json", _TimedJson(self, "wire.json", None))
        self.patch(QueryClient, "request", "client.request")
        self._set(repro.serve.client, "json",
                  _TimedJson(self, "client.json", "client.json"))
        self.patch_function([repro.tsdb.wire], "decode_response", "client.decode")

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span and counter."""
        spans = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        payload: Counter = Counter()
        for i, (name, start, end, parent, *_rest) in enumerate(spans):
            self_ns[name] += end - start - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p >= 0:
                continue  # nested inside a span of the same layer
            total_ns[name] += end - start
            calls[name] += 1
            payload[name] += spans[i][6]
        out: dict[str, float] = {}
        for metric, name in TOTAL_S.items():
            out[metric] = total_ns[name] / 1e9
        for metric, name in SELF_S.items():
            out[metric] = self_ns[name] / 1e9
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        for metric, name in PAYLOAD.items():
            out[metric] = payload[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        # What a request spends outside the server's execute/encode and
        # both ends' JSON: socket, event loop and executor hand-off.
        out["serve.transport_s"] = (
            out["client.roundtrip_s"] - out["serve.execute_s"]
            - out["wire.json_s"] - out["client.json_s"]
        )
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path: str | os.PathLike[str]) -> None:
        """Write every span (times in ns from the first span) as gzipped JSON."""
        t0 = min((s[1] for s in self.spans), default=0)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = {}
        rows = [
            [index[name], start - t0, end - t0, parent,
             op if op is not None else -1,
             threads.setdefault(tid, len(threads)), pay]
            for name, start, end, parent, op, tid, pay in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "op",
                            "thread", "payload"],
                "spans": rows,
            }, fh)

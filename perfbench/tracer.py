"""Per-layer attribution from the benchmark's own files.

The traced run wraps the program's public entry points — patched where
their callers look them up, so ``from x import f`` call sites are covered
— and records one span per call: name, start, end, parent span and
request id. Spans stay in memory and are written out when the run ends.
Each layer's self time is its spans' duration minus the time their child
spans cover; counts (hops, bytes, rows scanned, ...) are folded at the
same boundaries. Nothing inside the program is switched on: the program's
own tracer (``repro.obs.trace``) stays disabled.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

import numpy as np


# Count folds: ``fold(add, args, kwargs, result)`` after each call, where
# ``add(name, amount)`` files a count under the current phase.


def _route(add, args, kwargs, result):
    add("overlay.route.hops", len(result[1]))


def _replicate(add, args, kwargs, result):
    add("overlay.replicate.hops", len(result))


def _flood(add, args, kwargs, result):
    add("overlay.flood.hops", result.flood_hops)
    add("overlay.flood.zones", len(result.nodes_visited))


def _size(args, kwargs) -> int:
    """``size_bytes`` of ``Network.transmit`` / ``transmit_bulk``."""
    return args[4] if len(args) > 4 else kwargs["size_bytes"]


def _transmit(add, args, kwargs, result):
    add("net.transmit.frames", 1)
    add("net.transmit.bytes", _size(args, kwargs))


def _transmit_bulk(add, args, kwargs, result):
    add("net.transmit.frames", result)
    add("net.transmit.bytes", _size(args, kwargs) * result)


def _mask(add, args, kwargs, result):
    add("index.mask.rows_scanned", result.size)
    add("index.mask.rows_hit", int(np.count_nonzero(result)))


def _level_scores(add, args, kwargs, result):
    add("score.level.candidates", kwargs["stats"]["candidates"])
    add("score.level.surviving", kwargs["stats"]["surviving"])


def _kmeans(add, args, kwargs, result):
    add("clustering.kmeans.iterations", result.iterations)


def _search(add, args, kwargs, result):
    add("retrieve.search.useful", 1 if result else 0)


def entry_points() -> list:
    """``(owner, attribute, layer, fold)`` for every timed entry point."""
    mod = importlib.import_module
    can = mod("repro.overlay.can.network")
    queries = mod("repro.core.queries")
    knn = mod("repro.core.knn")
    serve = mod("repro.serve.engine")
    summaries = mod("repro.clustering.summaries")
    incremental = mod("repro.clustering.incremental")
    CAN = can.CANNetwork
    Network = mod("repro.net.network").Network
    Store = mod("repro.index.store").LevelStore
    Peer = mod("repro.core.peer").HyperMPeer
    HyperM = mod("repro.core.network").HyperMNetwork
    points = [
        (CAN, "join", "overlay.join", None),
        (CAN, "insert", "overlay.insert", None),
        (CAN, "range_query", "overlay.flood", _flood),
        (CAN, "patch_entries", "overlay.maintain", None),
        (CAN, "retract_entries", "overlay.maintain", None),
        (can, "route_to_owner", "overlay.route", _route),
        (mod("repro.overlay.can.replication"), "replicate_sphere",
         "overlay.replicate", _replicate),
        (Network, "transmit", "net.transmit", _transmit),
        (Network, "transmit_bulk", "net.transmit", _transmit_bulk),
        (Network, "finish_operation", "net.transmit", None),
        (Store, "intersection_mask", "index.mask", _mask),
        (Store, "intersection_masks", "index.mask", _mask),
        (Store, "union_candidates", "index.gather", None),
        (Store, "candidate_set", "index.gather", None),
        (Store, "add", "index.write", None),
        (Store, "update_entry", "index.write", None),
        (Store, "remove_entry", "index.write", None),
        (summaries, "decompose_dataset", "wavelets.dwt", None),
        (incremental, "decompose_dataset", "wavelets.dwt", None),
        (queries, "decompose", "wavelets.dwt", None),
        (summaries, "kmeans", "clustering.kmeans", _kmeans),
        (incremental, "kmeans", "clustering.kmeans", _kmeans),
        (Peer, "build_summary", "clustering.summary", None),
        (Peer, "build_delta", "clustering.delta", None),
        (Peer, "range_search", "retrieve.search", _search),
        (Peer, "nearest_items", "retrieve.search", _search),
        (serve.ServeEngine, "execute_batch", "serve.batch", None),
        (serve, "batched_candidates", "serve.candidates", None),
    ]
    for module in (knn, serve):
        points += [
            (module, "_spheres_from_entries", "geometry.estimate", None),
            (module, "expected_items", "geometry.estimate", None),
            (module, "estimate_epsilon_for_k", "geometry.estimate", None),
        ]
    for module in (queries, knn, serve):
        points += [
            (module, "level_scores", "score.level", _level_scores),
            (module, "aggregate_scores", "score.aggregate", None),
            (module, "rank_peers", "score.rank", None),
            (module, "contact_peers", "retrieve.contact", None),
            (module, "send_response", "retrieve.contact", None),
        ]
    points += [
        (queries, "retrieval_phase", "retrieve.contact", None),
        (serve, "retrieval_phase", "retrieve.contact", None),
    ]
    for method in (
        "add_peer", "publish_all", "publish_peer", "publish_delta",
        "range_query", "knn_query",
    ):
        points.append((HyperM, method, "core.glue", None))
    return points


class Tracer:
    """Span recorder over patched entry points, folded per phase.

    ``phase`` and ``request`` are set by the workload between operations;
    every span and count is filed under the phase that was current when
    the span closed.
    """

    def __init__(self):
        self.phase = "setup"
        self.request = 0
        self.spans: list[tuple] = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self._names: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._installed = False

    def _wrap(self, fn, layer: str, fold):
        name_index = len(self._names)
        self._names.append(f"{layer}:{fn.__qualname__}")
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        inject_stats = layer == "score.level"

        def traced(*args, **kwargs):
            if inject_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent, self.request)
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                key = (self.phase, layer)
                self.self_s[key] += elapsed - frame[1]
                self.calls[key] += 1
            if fold is not None:
                fold(self._add, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, name: str, amount: float) -> None:
        self.counts[(self.phase, name)] += amount

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        """Patch every entry point (wrappers are built once, then reused)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            for owner, attr, layer, fold in entry_points():
                own = attr in vars(owner)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, layer, fold)
                self._patches.append((owner, attr, original, own, wrapper))
        for owner, attr, __, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original back, leaving the classes as they were."""
        for owner, attr, original, own, __ in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = False

    def totals(self, phase: str) -> tuple[dict, dict, dict]:
        """``(self seconds, calls, counts)`` per layer for one phase."""
        pick = lambda table: {
            key[1]: value for key, value in table.items() if key[0] == phase
        }
        return pick(self.self_s), pick(self.calls), pick(self.counts)

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for name_index, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "name": self._names[name_index],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                }) + "\n")

"""The three workloads: set-up, one closed-loop client, checks, metrics.

Each workload builds and publishes its own network through the real
protocol — routed joins, then ``HyperMNetwork.publish_all`` with Figure 6
replication — on the default configuration (serial engine, CAN overlay,
no faults, adaptation off), then drives its operations from a single
client that issues the next call only when the last one returned. Input
generation and every correctness check run outside the timed calls.

Every time is rescaled by the calibration kernel (:mod:`calibrate`); the
raw times are reported beside them as ungated context.
"""

from __future__ import annotations

import gc
import math
import time
from statistics import mean, median

import numpy as np

from calibrate import REFERENCE_KERNEL_S, Calibrated
from checks import BruteForce, peer_answers_ok, replication_failures
from inputs import (
    DeltaStream,
    QueryStream,
    instance_seed,
    make_corpus,
    zipf_picks,
)
from tracer import Tracer

PARAMS = {
    "disseminate": {
        "peers": 100, "items_per_peer": 1000, "dimensionality": 512,
        "levels_used": 4, "n_clusters": 10, "min_publications": 3,
    },
    "query": {
        "peers": 128, "items_per_peer": 100, "dimensionality": 64,
        "levels_used": 3, "n_clusters": 6, "epsilon": 0.5, "k": 10,
        "range_per_knn": 4, "min_range_samples": 1000, "instances": 2,
    },
    "serve": {
        "peers": 128, "items_per_peer": 100, "dimensionality": 64,
        "levels_used": 3, "n_clusters": 6, "epsilon": 0.5, "k": 10,
        "range_max_peers": 8, "range_per_knn": 3, "batch": 16, "pool": 512,
        "zipf_s": 1.0, "delta_every": 8, "delta_peers": 4, "delta_items": 10,
        "min_batches": 100, "instances": 2,
    },
}

#: Hard stop for the sample floors, so a run always ends in time.
MAX_LOOP_S = 100.0


class Session:
    """One run: calibration, optional tracer, operation and failure counts."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        from repro.exceptions import ReproError

        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.cal = Calibrated()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: dict[str, bool] = {}
        self.context: dict = {}
        self.ops_traced = 0
        self._error_type = ReproError

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def request(self, phase: str, traced: bool) -> None:
        """Start one top-level call: file its spans, and trace it or not."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.phase = phase
        tracer.request += 1
        if traced and not tracer.installed:
            tracer.install()
        elif not traced and tracer.installed:
            tracer.uninstall()

    def attempt(self, count: int, fn, *args, **kwargs):
        """Call ``fn`` for ``count`` operations; a program error fails them."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except self._error_type as error:
            self.failed += count
            self.errors.append(f"{type(error).__name__}: {error}")
            return None

    def gate(self, name: str, ok: bool) -> None:
        """A run-level check; it holds only if it held every time."""
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def tracing_times(self, units: tuple, extra: tuple = ()) -> dict:
        """Traced versus untraced time per operation, for ``trace.*``.

        ``units`` are the kinds that count as operations; ``extra`` kinds
        (serve's deltas) add their time to the operations they sit among.
        """
        out = {}
        for suffix, label in (("", "untraced"), ("/traced", "traced")):
            count = sum(len(self.cal.raw(kind + suffix)) for kind in units)
            kinds = [kind + suffix for kind in units + extra]
            total = sum(sum(self.cal.normalised(kind)) for kind in kinds)
            out[label + "_per_op_s"] = total / count if count else math.nan
            if suffix:
                out["traced_wall_s"] = sum(self.cal.wall(k) for k in kinds)
        return out


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else math.nan


def _build(s: Session, corpus, p: dict, seed: int, traced: bool):
    """Overlay joins: a fresh network with every peer joined, unpublished."""
    from repro.core.network import HyperMConfig, HyperMNetwork

    config = HyperMConfig(levels_used=p["levels_used"], n_clusters=p["n_clusters"])
    s.request("setup", traced)
    net = HyperMNetwork(p["dimensionality"], config, rng=seed)
    for data, ids in corpus.peers:
        s.request("setup", traced)
        net.add_peer(data, ids)
    return net


def _publish(s: Session, net, traced: bool, phase: str, kind: str | None):
    """Routed ``publish_all``; returns the report and the fabric's hops
    before it. Timed as ``kind`` when given (else the caller times it)."""
    from repro.net.messages import MessageKind

    metrics = net.fabric.metrics
    before = {
        "insert": metrics.kind(MessageKind.INSERT).hops,
        "replicate": metrics.kind(MessageKind.REPLICATE).hops,
    }
    s.request(phase, traced)
    if kind is None:
        report = net.publish_all()
    else:
        report = s.cal.time(kind, net.publish_all)
    s.attempted += report.spheres_inserted
    return report, before


def _check_publication(s: Session, net, report, before: dict, p: dict) -> None:
    """Sphere count, hop accounting against the fabric, Figure 6."""
    from repro.net.messages import MessageKind

    metrics = net.fabric.metrics
    expected = p["peers"] * p["levels_used"] * p["n_clusters"]
    live = sum(o.level_store.n_live for o in net.overlays.values())
    s.gate("sphere_count", report.spheres_inserted == expected == live)
    s.gate(
        "hops_match_fabric",
        report.routing_hops
        == metrics.kind(MessageKind.INSERT).hops - before["insert"]
        and report.replica_hops
        == metrics.kind(MessageKind.REPLICATE).hops - before["replicate"],
    )
    bad = replication_failures(net)
    s.failed += bad
    context = s.context
    context["replication_failures"] = context.get("replication_failures", 0) + bad
    overlays = {type(o).__name__ for o in net.overlays.values()}
    context["effective"] = {
        "engine": type(net.engine).__name__,
        "overlay": sorted(overlays),
        "faults": "none" if net.fabric.faults is None else "installed",
        "adaptation": "off" if net.adaptation is None else "on",
    }


def _set_up(s: Session, corpus, p: dict, seed: int, prepare=None):
    """Joins and routed ``publish_all`` (plus ``prepare(net, traced)``),
    timed as one set-up and checked; returns the network and extra."""
    gc.collect()
    traced = s.tracing

    def set_up():
        net = _build(s, corpus, p, seed, traced)
        report, before = _publish(s, net, traced, "setup", None)
        extra = prepare(net, traced) if prepare is not None else None
        return net, report, before, extra

    net, report, before, extra = s.cal.time("setup", set_up)
    s.request("run", False)
    _check_publication(s, net, report, before, p)
    gc.collect()
    return net, extra


def _instances(s: Session, p: dict) -> list:
    """Seeds of the independent instances a run measures in turn.

    Every instance has its own corpus, overlay layout and query stream,
    so a run averages over ``p["instances"]`` networks instead of hinging
    on one; a traced run needs only one.
    """
    count = 1 if s.tracing else p["instances"]
    return [instance_seed(s.seed, index) for index in range(count)]


# -- disseminate ----------------------------------------------------------


def disseminate(s: Session) -> dict:
    p = PARAMS["disseminate"]
    corpus = make_corpus(
        s.seed, p["peers"], p["items_per_peer"], p["dimensionality"]
    )
    hops = []
    reps = 0
    start = time.perf_counter()
    with s.cal:
        while True:
            elapsed = time.perf_counter() - start
            # Stop once another publication would overrun ``--seconds``.
            enough = reps >= p["min_publications"]
            if enough and elapsed * (reps + 1) / reps > s.seconds:
                break
            traced = s.tracing and reps % 2 == 1
            gc.collect()
            net = s.cal.time("setup", _build, s, corpus, p, s.seed, traced)
            kind = "publish/traced" if traced else "publish"
            report, before = _publish(s, net, traced, "run", kind)
            s.request("run", False)
            s.ops_traced += traced
            _check_publication(s, net, report, before, p)
            hops.append(report.total_hops / report.spheres_inserted)
            reps += 1
            del net
    s.gate("deterministic_hops", len(set(hops)) == 1)

    def summarise(times):
        publish = times("publish")
        peers_per_s = p["peers"] / median(publish)
        metrics = {
            "publish_peers_per_s": (peers_per_s, "peers/s"),
            "publish_hops_per_sphere": (hops[0], "hops"),
        }
        return metrics, {
            "ops_per_s": peers_per_s,
            "p50_ms": 1000.0 * median(publish),
            "tail_ms": 1000.0 * max(publish),
            "hops_per_op": hops[0],
        }

    return {
        "summarise": summarise,
        "tracing": s.tracing_times(("publish",)),
        "samples": {"publications": reps, "setups": reps},
    }


# -- query ----------------------------------------------------------------


def query(s: Session) -> dict:
    p = PARAMS["query"]
    every = p["range_per_knn"] + 1
    chunk = 5 * every
    done = []  # (instance, is k-NN, query, (ids, distances, index hops))
    n_range = chunks = 0
    traced = False
    instances = []
    with s.cal:
        for seed in _instances(s, p):
            corpus = make_corpus(
                seed, p["peers"], p["items_per_peer"], p["dimensionality"]
            )
            net, __ = _set_up(s, corpus, p, seed)
            origins = np.random.default_rng([seed, 2])
            instances.append((net, QueryStream(corpus, seed, 1), origins))
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            floor_met = chunks >= 2 if s.tracing else n_range >= p["min_range_samples"]
            if (elapsed >= s.seconds and floor_met) or elapsed >= MAX_LOOP_S:
                break
            which = chunks % len(instances)
            net, stream, origins = instances[which]
            queries = stream.take(chunk)
            starts = origins.integers(p["peers"], size=chunk)
            chunks += 1
            traced = s.tracing and not traced
            for position, (vector, origin) in enumerate(zip(queries, starts)):
                knn = position % every == every - 1
                kind = ("knn" if knn else "range") + ("/traced" if traced else "")
                s.request("run", traced)
                if knn:
                    call = (net.knn_query, vector, p["k"])
                else:
                    call = (net.range_query, vector, p["epsilon"])
                    n_range += 1
                result = s.cal.time(kind, s.attempt, 1, *call, origin_peer=int(origin))
                s.ops_traced += traced
                if result is not None:
                    # Keep arrays, not result objects: a growing heap of
                    # live objects would slow the collector under the timer.
                    items = result.items
                    answer = (
                        np.array([i.item_id for i in items], dtype=np.int64),
                        np.array([i.distance for i in items]),
                        result.index_hops,
                    )
                    done.append((which, knn, vector, answer))
        s.request("run", False)

    recalls = []
    range_hops = []
    for which, (net, __, __) in enumerate(instances):
        truth = BruteForce(*_items(net))
        mine = [entry[1:] for entry in done if entry[0] == which]
        for begin in range(0, len(mine), 256):
            block = mine[begin:begin + 256]
            dists = truth.distances(np.stack([vector for __, vector, __ in block]))
            for (knn, __, (ids, distances, hops)), dist in zip(
                block, dists, strict=True
            ):
                if knn:
                    ok, recall = truth.knn_check(dist, p["k"], ids, distances)
                    recalls.append(recall)
                else:
                    ok = truth.range_ok(dist, p["epsilon"], ids)
                    range_hops.append(hops)
                s.failed += not ok
    hops = float(np.mean(range_hops))
    recall = float(np.mean(recalls)) if recalls else math.nan

    def summarise(times):
        ranges, knns = times("range"), times("knn")
        metrics = {
            "range_p50_ms": (1000.0 * _percentile(ranges, 50), "ms"),
            "range_p99_ms": (1000.0 * _percentile(ranges, 99), "ms"),
            "range_hops_per_query": (hops, "hops"),
            "knn_p50_ms": (1000.0 * _percentile(knns, 50), "ms"),
            "knn_p95_ms": (1000.0 * _percentile(knns, 95), "ms"),
            "knn_recall": (recall, "ratio"),
        }
        return metrics, {
            "ops_per_s": (len(ranges) + len(knns)) / (sum(ranges) + sum(knns)),
            "p50_ms": metrics["range_p50_ms"][0],
            "tail_ms": metrics["range_p99_ms"][0],
            "hops_per_op": hops,
        }

    return {
        "summarise": summarise,
        "tracing": s.tracing_times(("range", "knn")),
        "samples": {"range": len(s.cal.raw("range")), "knn": len(s.cal.raw("knn"))},
    }


def _items(net):
    data = np.vstack([peer.data for peer in net.peers.values()])
    ids = np.concatenate([peer.item_ids for peer in net.peers.values()])
    return data, ids


# -- serve ----------------------------------------------------------------


def _pools(corpus, p: dict, seed: int) -> tuple[list, list]:
    """The distinct requests, ``(range, k-NN)``, from random origins.

    ``p["pool"]`` requests in all, split ``range_per_knn`` : 1.
    """
    from repro.serve import KnnRequest, RangeRequest

    every = p["range_per_knn"] + 1
    origins = np.random.default_rng([seed, 3]).integers(p["peers"], size=p["pool"])
    ranges, knns = [], []
    for index, vector in enumerate(QueryStream(corpus, seed, 2).take(p["pool"])):
        origin = int(origins[index])
        if index % every == every - 1:
            knns.append(KnnRequest(query=vector, k=p["k"], origin_peer=origin))
        else:
            ranges.append(RangeRequest(
                query=vector, epsilon=p["epsilon"],
                max_peers=p["range_max_peers"], origin_peer=origin,
            ))
    return ranges, knns


def _batches(pools: tuple, p: dict, seed: int, chunk: int) -> list:
    """``p["delta_every"]`` batches, each ``range_per_knn`` : 1 exactly,
    every request drawn Zipf over its own pool under a fresh ranking."""
    ranges, knns = pools
    every = p["range_per_knn"] + 1
    n_knn = p["batch"] // every
    n_range = p["batch"] - n_knn
    count = p["delta_every"]
    range_picks = zipf_picks(
        seed, 100 + 2 * chunk, len(ranges), n_range * count, p["zipf_s"]
    )
    knn_picks = zipf_picks(
        seed, 101 + 2 * chunk, len(knns), n_knn * count, p["zipf_s"]
    )
    batches = []
    for b in range(count):
        batch = [ranges[i] for i in range_picks[b * n_range:(b + 1) * n_range]]
        for slot, i in enumerate(knn_picks[b * n_knn:(b + 1) * n_knn]):
            batch.insert(slot * every + every - 1, knns[i])
        batches.append(batch)
    return batches


def serve(s: Session) -> dict:
    from repro.serve import ServeEngine

    p = PARAMS["serve"]
    size = p["batch"]
    chunk = 0
    traced = False
    messages = batches = 0
    traced_cache = {"hits": 0, "misses": 0, "stale": 0}
    instances = []
    with s.cal:
        for seed in _instances(s, p):
            corpus = make_corpus(
                seed, p["peers"], p["items_per_peer"], p["dimensionality"]
            )
            pools = _pools(corpus, p, seed)
            ranges, knns = pools
            share = p["range_per_knn"]
            pool = [  # the pool in its drawn order, for the warm-up pass
                request
                for i, knn in enumerate(knns)
                for request in (*ranges[share * i:share * (i + 1)], knn)
            ]

            def warm_engine(net, traced, pool=pool):
                engine = ServeEngine(net)
                for begin in range(0, len(pool), size):
                    s.request("setup", traced)
                    engine.execute_batch(pool[begin:begin + size])
                return engine

            net, engine = _set_up(s, corpus, p, seed, warm_engine)
            deltas = DeltaStream(corpus, seed, 4)
            before = engine.snapshot()["candidate_cache"]
            instances.append((net, engine, pools, deltas, before, seed))
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            floor_met = chunk >= 2 if s.tracing else batches >= p["min_batches"]
            if (elapsed >= s.seconds and floor_met) or elapsed >= MAX_LOOP_S:
                break
            net, engine, pools, deltas, __, seed = instances[chunk % len(instances)]
            batches_here = _batches(pools, p, seed, chunk)
            chunk += 1
            traced = s.tracing and not traced
            suffix = "/traced" if traced else ""
            cache_start = engine.snapshot()["candidate_cache"]
            for batch in batches_here:
                s.request("run", traced)
                results = s.cal.time(
                    "batch" + suffix, s.attempt, size, engine.execute_batch, batch
                )
                s.ops_traced += traced
                batches += 1
                for request, result in zip(batch, results or (), strict=False):
                    epsilon = getattr(request, "epsilon", None)
                    s.failed += not peer_answers_ok(
                        net, request.query, result, epsilon=epsilon
                    )
                    messages += result.retrieval_messages
            for peer_id, data, ids in deltas.take(p["delta_peers"], p["delta_items"]):
                net.peers[peer_id].add_items(data, ids)
                s.request("run", traced)
                s.cal.time("delta" + suffix, s.attempt, 1, net.publish_delta, peer_id)
            if traced:
                cache_end = engine.snapshot()["candidate_cache"]
                for key in traced_cache:
                    traced_cache[key] += cache_end[key] - cache_start[key]
        s.request("run", False)
    hits = lookups = 0
    for __, engine, __, __, before, __ in instances:
        after = engine.snapshot()["candidate_cache"]
        hits += after["hits"] - before["hits"]
        lookups += after["hits"] - before["hits"] + after["misses"] - before["misses"]

    s.context["traced_cache"] = traced_cache
    hit_ratio = hits / lookups if lookups else math.nan
    per_request = messages / max(batches * size, 1)

    def summarise(times):
        batch_s, delta_s = times("batch"), times("delta")
        served = len(batch_s) * size
        metrics = {
            "serve_qps": (served / sum(batch_s), "q/s"),
            "serve_batch_p50_ms": (1000.0 * _percentile(batch_s, 50), "ms"),
            "serve_batch_p90_ms": (1000.0 * _percentile(batch_s, 90), "ms"),
            "delta_peers_per_s": (len(delta_s) / sum(delta_s), "peers/s"),
            "cache_hit_ratio": (hit_ratio, "ratio"),
            "retrieval_messages_per_request": (per_request, "hops"),
        }
        return metrics, {
            "ops_per_s": served / (sum(batch_s) + sum(delta_s)),
            "p50_ms": metrics["serve_batch_p50_ms"][0],
            "tail_ms": metrics["serve_batch_p90_ms"][0],
            "hops_per_op": per_request,
        }

    return {
        "summarise": summarise,
        "tracing": s.tracing_times(("batch",), ("delta",)),
        "samples": {
            "batches": len(s.cal.raw("batch")),
            "deltas": len(s.cal.raw("delta")),
        },
    }


WORKLOADS = {"disseminate": disseminate, "query": query, "serve": serve}


def kernel_factor(s: Session) -> float:
    """Run-wide scale onto the reference machine (per-layer times)."""
    return REFERENCE_KERNEL_S / mean(s.cal.kernel_s)

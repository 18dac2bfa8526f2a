"""The concurrent batched query-serving engine.

:class:`ServeEngine` is the throughput-oriented front door over one
:class:`repro.core.network.HyperMNetwork`:

* **Admission control** — a bounded waiting queue plus a bounded number
  of in-flight coalescing dispatchers. A request arriving past the queue
  bound gets an explicit *shed* response immediately (no error, no
  unbounded latency tail); admitted requests always complete.
* **Coalescing** — each dispatcher collects up to ``max_batch`` waiting
  requests inside a ``batch_window`` and executes them as one batch:
  one stacked intersection GEMM per level (:mod:`repro.serve.batch`),
  de-multiplexed into per-query Eq. 1 scores.
* **Caching** — hot candidate sets, generation-keyed so publishes /
  deltas / rebalances invalidate exactly the mutated level
  (:mod:`repro.serve.cache`). Query translation, Theorem 3.1 radii and
  the k-NN discovery loop are the sequential path's own
  (:mod:`repro.core.queries`, :mod:`repro.core.knn`).
* **Mining + pre-warming** — the served log feeds a
  :class:`repro.serve.mining.QueryLogMiner`; after any store mutation
  the hottest lookups are recomputed in one stacked pass before the next
  batch pays the miss.

Batch execution itself is synchronous Python over the single-threaded
simulator, so ``max_inflight`` dispatchers serialize on compute; the
knob still bounds how many coalesced batches can be admitted into
execution at once, which is the degree a real deployment (with compute
off the event loop) would tune.

Ordering semantics match the sequential plane: every query's Eq. 1
scores are computed against the store state at batch start (scores are
plain dicts, so an adaptation epoch fired mid-batch by an earlier
query's retrieval cannot stale a later query's scoring), and each
query's retrieval + ``note_query`` tick runs in admission order.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.knn import (
    _check_knn_args,
    _discover_level,
    _peers_to_contact,
)
from repro.core.queries import (
    _check_size,
    _default_origin,
    _query_keys,
    contact_peers,
    level_radii,
    retrieval_phase,
    send_response,
)
from repro.core.results import (
    KnnResult,
    RangeQueryResult,
    sort_items_by_distance,
)
from repro.core.scoring import (
    aggregate_scores,
    level_scores,
    partial_confidence,
    rank_peers,
)
from repro.exceptions import QueryError, ServeError, ValidationError
# Not called here: perfbench/tracer.py patches these names on this module.
from repro.core.knn import _spheres_from_entries  # noqa: F401
from repro.geometry.epsilon import estimate_epsilon_for_k, expected_items  # noqa: F401
from repro.obs import flight as obs_flight
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.serve.batch import batched_candidates, fresh_candidates
from repro.serve.cache import CandidateCache, candidate_key
from repro.serve.mining import QueryLogMiner
from repro.utils.validation import check_positive, check_vector
from repro.wavelets.bounds import coefficient_interval, radius_scale


@dataclass(frozen=True)
class ServeConfig:
    """Admission, batching, caching, and mining knobs."""

    #: Waiting requests admitted before new arrivals are shed.
    max_queue: int = 64
    #: Coalescing dispatchers (concurrent batches admitted to execution).
    max_inflight: int = 2
    #: Largest batch one dispatcher coalesces.
    max_batch: int = 16
    #: Seconds a dispatcher waits for co-batchable requests.
    batch_window: float = 0.002
    #: Candidate-cache entries (per engine, across levels).
    cache_candidates: int = 256
    #: Mine the query log and pre-warm invalidated hot lookups.
    mine_queries: bool = True
    #: Hot lookups re-primed per pre-warm sweep.
    prewarm_keys: int = 8
    #: Occupancy-grid resolution per key-space axis.
    mining_grid: int = 8

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValidationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.batch_window < 0.0:
            raise ValidationError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )


@dataclass(frozen=True)
class RangeRequest:
    """One range query: all items within ``epsilon`` of ``query``."""

    query: np.ndarray
    epsilon: float
    max_peers: int | None = None
    origin_peer: int | None = None
    aggregation: str | None = None


@dataclass(frozen=True)
class KnnRequest:
    """One k-NN query (Figure 5 heuristic, optional early termination)."""

    query: np.ndarray
    k: int
    c: float = 1.0
    top_p: int | None = None
    origin_peer: int | None = None
    aggregation: str | None = None
    #: Stop contacting ranked peers once their Theorem 3.1 distance lower
    #: bounds prove they cannot improve the current top k.
    early_termination: bool = True


@dataclass
class ServeResponse:
    """What :meth:`ServeEngine.submit` resolves to."""

    status: str  # "ok" | "shed"
    result: RangeQueryResult | KnnResult | None = None
    reason: str | None = None
    batch_size: int = 0
    latency: float = 0.0


@dataclass
class _Pending:
    request: RangeRequest | KnnRequest
    future: asyncio.Future
    enqueued: float


_STOP = object()


@dataclass
class _Counters:
    admitted: int = 0
    shed: int = 0
    batches: int = 0
    served: int = 0
    prewarmed: int = 0
    knn_early_stops: int = 0
    knn_peers_skipped: int = 0
    generations: dict = field(default_factory=dict)


class ServeEngine:
    """Concurrent batched range/k-NN serving over one network.

    The synchronous surface (:meth:`execute`, :meth:`execute_batch`) is
    complete on its own — benchmarks and tests drive it directly; the
    asyncio surface (:meth:`start` / :meth:`submit` / :meth:`stop`) adds
    admission control and coalescing on top of it.
    """

    def __init__(self, network, config: ServeConfig | None = None):
        self.network = network
        self.config = config or ServeConfig()
        self.candidates = CandidateCache(self.config.cache_candidates)
        self.miner = (
            QueryLogMiner(grid=self.config.mining_grid)
            if self.config.mine_queries
            else None
        )
        self._counters = _Counters()
        self._queue: asyncio.Queue | None = None
        self._tasks: list[asyncio.Task] = []
        self._waiting = 0

    # -- synchronous batch plane --------------------------------------------

    def execute(self, request: RangeRequest | KnnRequest):
        """Serve one request (a batch of one)."""
        return self.execute_batch([request])[0]

    def execute_batch(self, requests: list) -> list:
        """Serve a coalesced batch; one stacked mask pass per level.

        Results come back in request order and match what
        :func:`repro.core.queries.range_query` /
        :func:`repro.core.knn.knn_query` return for the same inputs on
        the same network state (``index_hops`` excepted: the engine
        co-locates the index, so no overlay routing is charged).
        """
        if not requests:
            return []
        metrics = obs_registry.metrics()
        recorder = obs_trace.state.recorder
        with recorder.span(
            "serve_batch", size=len(requests)
        ) as span, obs_flight.state.recorder.operation(
            "serve_batch", size=len(requests)
        ):
            self._maybe_prewarm()
            origins = [self._resolve_origin(req) for req in requests]
            plans = self._range_plans(requests)
            candidate_sets = batched_candidates(
                self.network,
                [plan for plan in plans if plan is not None],
                self.candidates,
            )
            # Score every range query before any retrieval runs: scores
            # are plain dicts, so a mid-batch adaptation epoch (store
            # generation bump) cannot stale a later query's scoring.
            scored: list = [None] * len(requests)
            fetched = iter(candidate_sets)
            for position, request in enumerate(requests):
                if plans[position] is None:
                    continue
                scored[position] = self._score_range(
                    request, plans[position], next(fetched)
                )
            results = []
            for position, request in enumerate(requests):
                if isinstance(request, KnnRequest):
                    results.append(self._serve_knn(request, origins[position]))
                else:
                    results.append(
                        self._finish_range(
                            request, origins[position], scored[position]
                        )
                    )
            self._counters.batches += 1
            self._counters.served += len(requests)
            span.set(served=len(requests))
        metrics.counter("serve.batches").inc()
        metrics.counter("serve.requests").inc(len(requests))
        metrics.histogram("serve.batch_size").observe(len(requests))
        return results

    def _resolve_origin(self, request) -> int:
        origin = request.origin_peer
        if origin is None:
            return _default_origin(self.network)
        if origin not in self.network.peers:
            raise QueryError(f"unknown origin peer {origin}")
        if not self.network.peers[origin].online:
            raise QueryError(f"origin peer {origin} has left the network")
        return origin

    def _range_plans(self, requests: list) -> list:
        """Per-request ``{level: (key, radius)}`` plans (None for k-NN)."""
        plans: list = []
        for request in requests:
            if isinstance(request, KnnRequest):
                plans.append(None)
                continue
            query = check_vector(
                request.query, "query", dim=self.network.dimensionality
            )
            check_positive(request.epsilon, "epsilon", strict=False)
            if request.max_peers is not None:
                _check_size(request.max_peers, "max_peers")
            levels = self.network.levels
            keys = _query_keys(levels, query)
            radii = level_radii(
                self.network.dimensionality, levels, request.epsilon
            )
            plan = {level: (keys[level], radii[level]) for level in levels}
            if self.miner is not None:
                for index, level in enumerate(levels):
                    self.miner.observe(
                        str(level), index, keys[level], radii[level]
                    )
            plans.append(plan)
        return plans

    def _score_range(self, request, plan: dict, candidates: dict) -> dict:
        """Eq. 1 scores for one range query from its candidate sets."""
        per_level = {
            level: level_scores(candidates[level], key, radius)
            for level, (key, radius) in plan.items()
        }
        policy = request.aggregation or self.network.config.aggregation
        return aggregate_scores(per_level, policy=policy)

    def _finish_range(
        self, request: RangeRequest, origin: int, aggregated: dict
    ) -> RangeQueryResult:
        """Retrieval phase + adaptation tick for one scored range query."""
        ranked = rank_peers(aggregated)
        items, answered, failed, messages, attempted = retrieval_phase(
            self.network, ranked, request.query, request.epsilon,
            origin_peer=origin, max_peers=request.max_peers,
        )
        n_levels = len(self.network.levels)
        confidence = partial_confidence(
            n_levels, n_levels, len(answered), attempted
        )
        controller = getattr(self.network, "adaptation", None)
        if controller is not None:
            controller.note_query()
        return RangeQueryResult(
            items=sort_items_by_distance(items),
            peer_scores=aggregated,
            peers_contacted=answered,
            failed_contacts=failed,
            index_hops=0,
            retrieval_messages=messages,
            confidence=confidence,
            degraded=confidence < 1.0,
        )

    # -- k-NN with early termination ----------------------------------------

    def _store_probe(self, level_index: int, level, key):
        """Probe form of one level's cached store-direct lookup.

        Each lookup is heat-bumped; no hops are charged (the engine
        co-locates the index).
        """
        store = self.network.overlays[level].level_store

        def probe(radius: float) -> tuple:
            ck = candidate_key(level_index, key, radius)
            candidates = self.candidates.lookup(ck)
            if candidates is None:
                candidates = fresh_candidates(store, key, radius)
                self.candidates.store(ck, candidates)
            store.bump_heat(candidates.rows)
            return candidates, 0

        return probe

    def _peer_lower_bounds(
        self, keys: dict, discovered: dict, epsilon_per_level: dict
    ) -> dict[int, float]:
        """Per-peer lower bounds on original-space item distance.

        At each level, a peer's items lie inside its published cluster
        spheres (in key space), so ``max(0, ||q_key − center|| − radius)``
        lower-bounds the key-space distance to any item in that cluster;
        clusters *outside* the discovery radius ``ε_l`` are at key
        distance > ``ε_l``, so the per-peer level bound is the minimum of
        its visible clusters' bounds capped at ``ε_l``. Key-space
        distances convert to original-space lower bounds via the inverse
        Theorem 3.1 contraction (``× (hi − lo) / radius_scale``; the
        ``[0,1]`` clip only shrinks key distances, which keeps the bound
        sound), and the per-level bounds combine by max. Soundness
        assumes published summaries cover the peers' current items — the
        paper's model, and the serving tier's steady state.
        """
        d = self.network.dimensionality
        bounds: dict[int, float] = {}
        for level_index, level in enumerate(self.network.levels):
            candidates = discovered[level]
            center = keys[level]
            sphere_keys, radii, __, peer_ids, ___ = candidates.columns()
            eps_l = float(epsilon_per_level[level])
            lo, hi = coefficient_interval(level)
            to_original = (hi - lo) / radius_scale(d, level)
            level_bounds: dict[int, float] = {}
            if len(peer_ids):
                diff = sphere_keys - center
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                row_bounds = np.maximum(dist - radii, 0.0)
                order = np.argsort(peer_ids, kind="stable")
                sorted_ids = peer_ids[order]
                starts = np.flatnonzero(
                    np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
                )
                per_peer = np.minimum.reduceat(row_bounds[order], starts)
                level_bounds = {
                    int(pid): float(lb)
                    for pid, lb in zip(
                        sorted_ids[starts], per_peer, strict=True
                    )
                }
            for peer_id in set(bounds) | set(level_bounds):
                level_lb = min(level_bounds.get(peer_id, eps_l), eps_l)
                candidate = level_lb * to_original
                if candidate > bounds.get(peer_id, 0.0):
                    bounds[peer_id] = candidate
        return bounds

    def _serve_knn(self, request: KnnRequest, origin: int) -> KnnResult:
        """Figure 5 k-NN over the cached store-direct index."""
        query = check_vector(
            request.query, "query", dim=self.network.dimensionality
        )
        k, c = request.k, request.c
        _check_knn_args(k, c, request.top_p)
        keys = _query_keys(self.network.levels, query)
        per_level: dict = {}
        epsilon_per_level: dict = {}
        discovered: dict = {}
        for level_index, level in enumerate(self.network.levels):
            eps_l, candidates, __, ___ = _discover_level(
                self._store_probe(level_index, level, keys[level]),
                keys[level],
                float(k),
            )
            epsilon_per_level[level] = eps_l
            discovered[level] = candidates
            per_level[level] = level_scores(candidates, keys[level], eps_l)
            if self.miner is not None:
                self.miner.observe(str(level), level_index, keys[level], eps_l)
        policy = request.aggregation or self.network.config.aggregation
        aggregated = aggregate_scores(per_level, policy=policy)
        ranked = rank_peers(aggregated)
        selected = _peers_to_contact(ranked, k, request.top_p)

        bounds: dict[int, float] = {}
        suffix_min: list[float] = []
        if request.early_termination and selected:
            bounds = self._peer_lower_bounds(
                keys, discovered, epsilon_per_level
            )
            # suffix_min[i] = tightest bound among peers i..end: the
            # termination test must prove *every* remaining peer useless.
            suffix_min = [0.0] * len(selected)
            running = math.inf
            for index in range(len(selected) - 1, -1, -1):
                running = min(running, bounds.get(selected[index][0], 0.0))
                suffix_min[index] = running

        items: list = []
        contacted: list[int] = []
        failed: list[int] = []
        messages = 0
        distances: list[float] = []
        score_sum = sum(score for __, score in selected)
        for index, (peer_id, score) in enumerate(selected):
            if (
                request.early_termination
                and len(distances) >= k
                and suffix_min[index] > sorted(distances)[k - 1]
            ):
                skipped = len(selected) - index
                self._counters.knn_early_stops += 1
                self._counters.knn_peers_skipped += skipped
                metrics = obs_registry.metrics()
                metrics.counter("serve.knn.early_stops").inc()
                metrics.histogram("serve.knn.peers_skipped").observe(skipped)
                break
            reached, request_messages, lost = contact_peers(
                self.network, [(peer_id, score)],
                origin_peer=origin, max_peers=None,
            )
            messages += request_messages
            failed.extend(lost)
            if not reached:
                continue
            if score_sum > 0:
                share = score / score_sum
            else:
                share = 1.0 / max(len(selected), 1)
            no_items = int(math.ceil(c * k * share))
            supplied = self.network.peers[peer_id].nearest_items(
                query, no_items
            )
            delivered, response_messages = send_response(
                self.network, origin, peer_id, len(supplied)
            )
            messages += response_messages
            if not delivered:
                failed.append(peer_id)  # reply lost despite retries
                continue
            contacted.append(peer_id)
            items.extend(supplied)
            distances.extend(item.distance for item in supplied)
        return KnnResult(
            items=sort_items_by_distance(items),
            requested_k=k,
            epsilon_per_level=epsilon_per_level,
            peer_scores=aggregated,
            peers_contacted=contacted,
            failed_contacts=failed,
            index_hops=0,
            retrieval_messages=messages,
        )

    # -- pre-warming ---------------------------------------------------------

    def _maybe_prewarm(self) -> int:
        """Pre-warm hot lookups when any level's store has mutated."""
        if self.miner is None:
            return 0
        generations = {
            str(level): self.network.overlays[level].level_store.generation
            for level in self.network.levels
        }
        if generations == self._counters.generations:
            return 0
        self._counters.generations = generations
        return self.prewarm()

    def prewarm(self) -> int:
        """Recompute the miner's hottest missing lookups, stacked per level.

        Returns how many candidate sets were primed. Heat is *not*
        bumped here — pre-warming is speculative compute, not demand.
        """
        if self.miner is None:
            return 0
        hot = self.miner.hot_keys(self.config.prewarm_keys)
        by_level: dict[int, list] = {}
        for ck in hot:
            if self.candidates.peek(ck) is None:
                by_level.setdefault(ck[0], []).append(ck)
        primed = 0
        for level_index, cache_keys in by_level.items():
            level = self.network.levels[level_index]
            store = self.network.overlays[level].level_store
            centers = np.stack([
                np.frombuffer(ck[1], dtype=np.float64) for ck in cache_keys
            ])
            radii = np.asarray([ck[2] for ck in cache_keys], dtype=np.float64)
            masks = store.intersection_masks(centers, radii)
            for row, ck in enumerate(cache_keys):
                self.candidates.store(
                    ck, store.candidate_set(np.flatnonzero(masks[row]))
                )
                primed += 1
        if primed:
            self._counters.prewarmed += primed
            obs_registry.metrics().counter("serve.prewarm.keys").inc(primed)
        return primed

    # -- asyncio admission + coalescing layer -------------------------------

    async def start(self) -> None:
        """Spawn the coalescing dispatchers (idempotent misuse raises)."""
        if self._tasks:
            raise ServeError("engine already started")
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._waiting = 0
        self._tasks = [
            loop.create_task(self._dispatch_loop())
            for __ in range(self.config.max_inflight)
        ]

    async def stop(self) -> None:
        """Drain the queue, stop every dispatcher, and reap the tasks."""
        if not self._tasks:
            return
        for __ in self._tasks:
            self._queue.put_nowait(_STOP)
        await asyncio.gather(*self._tasks)
        self._tasks = []
        self._queue = None

    async def submit(
        self, request: RangeRequest | KnnRequest
    ) -> ServeResponse:
        """Admit one request; resolves when its batch completes (or sheds).

        Shedding is synchronous: a request arriving while ``max_queue``
        requests already wait gets the shed response immediately —
        bounded queueing is what keeps the latency tail honest.
        """
        if not self._tasks:
            raise ServeError("engine not started; call start() first")
        if self._waiting >= self.config.max_queue:
            self._counters.shed += 1
            obs_registry.metrics().counter("serve.shed").inc()
            return ServeResponse(status="shed", reason="queue_full")
        loop = asyncio.get_running_loop()
        pending = _Pending(request, loop.create_future(), loop.time())
        self._waiting += 1
        self._counters.admitted += 1
        self._queue.put_nowait(pending)
        return await pending.future

    async def _fetch(self, timeout: float):
        """One timed queue read; ``None`` means the batch window elapsed."""
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    def _settle(self, batch: list[_Pending], loop) -> None:
        """Execute one coalesced batch and resolve every waiter's future."""
        try:
            results = self.execute_batch([p.request for p in batch])
        except Exception as error:  # surface to every waiter
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
        else:
            now = loop.time()
            metrics = obs_registry.metrics()
            for pending, result in zip(batch, results, strict=True):
                latency = now - pending.enqueued
                metrics.histogram("serve.latency_ms").observe(
                    latency * 1000.0
                )
                if not pending.future.done():
                    pending.future.set_result(ServeResponse(
                        status="ok",
                        result=result,
                        batch_size=len(batch),
                        latency=latency,
                    ))

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            if head is _STOP:
                return
            batch = [head]
            deadline = loop.time() + self.config.batch_window
            stop_after = False
            while len(batch) < self.config.max_batch:
                if not self._queue.empty():
                    item = self._queue.get_nowait()
                else:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    item = await self._fetch(remaining)
                    if item is None:
                        break
                if item is _STOP:
                    # Keep the stop signal's semantics: this dispatcher
                    # finishes its batch, then exits.
                    stop_after = True
                    break
                batch.append(item)
            self._waiting -= len(batch)
            self._settle(batch, loop)
            if stop_after:
                return

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """Engine counters + cache/miner state (JSON-safe)."""
        counters = self._counters
        summary = {
            "admitted": counters.admitted,
            "shed": counters.shed,
            "batches": counters.batches,
            "served": counters.served,
            "prewarmed": counters.prewarmed,
            "knn_early_stops": counters.knn_early_stops,
            "knn_peers_skipped": counters.knn_peers_skipped,
            "waiting": self._waiting,
            "candidate_cache": self.candidates.snapshot(),
        }
        if self.miner is not None:
            summary["miner"] = self.miner.snapshot()
        return summary

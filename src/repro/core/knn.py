"""k-nearest-neighbour heuristic (paper Section 4.2, Figure 5).

Summaries cannot pinpoint the k closest items, so Hyper-M estimates, per
wavelet level, the range-query radius ``ε_l`` whose *expected* retrieval is
``k`` items (inverting Eq. 8 numerically over the reachable cluster
spheres), runs those range queries, merges the per-level peer scores, and
requests from each of the top ``P`` peers a number of items proportional to
its normalised score, scaled by the tuning constant ``C`` (Figure 5,
step 8: ``no_items_p = C * k * score_p / sum``).

Reachability: the query initiator cannot see every cluster in the network
a-priori. We discover clusters with geometrically expanding overlay range
queries until the discovered spheres are expected to supply ``k`` items
(or the query covers the whole key space), then invert Eq. 8 over what was
found — every probe's hops are charged to the index cost.

Query translation (the per-level DWT + key-space mapping) is shared with
the range path through :func:`repro.core.queries._query_keys`'s per-query
cache, so the exact-refinement follow-up range queries reuse the k-NN
query's translated spheres instead of re-decomposing the vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.queries import (
    _check_size,
    _default_origin,
    _query_keys,
    contact_peers,
    send_response,
)
from repro.core.results import KnnResult, sort_items_by_distance
from repro.core.scoring import aggregate_scores, level_scores, rank_peers
from repro.exceptions import QueryError
from repro.geometry.epsilon import estimate_epsilon_for_k, expected_items
from repro.obs import flight as obs_flight
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.utils.validation import check_vector

#: First probe radius, as a fraction of the key-space diagonal.
_INITIAL_PROBE_FRACTION = 0.05


def _spheres_from_entries(entries) -> tuple:
    """Eq. 8 sphere columns ``(centroids, radii, items)`` of a candidate set."""
    return entries.columns()[:3]


def _overlay_probe(overlay, origin_node: int, key: np.ndarray):
    """Probe form of one level's overlay range query (hops charged)."""

    def probe(eps: float) -> tuple:
        receipt = overlay.range_query(origin_node, key, eps)
        return receipt.entries, receipt.total_hops

    return probe


def _discover_level(
    probe, key: np.ndarray, k: float
) -> tuple[float, object, int, int]:
    """Expanding probes at one level: ``(ε, candidates, hops, probes)``.

    ``probe(eps) -> (candidates, hops)`` resolves one radius: the overlay
    walk on the sequential path (:func:`_overlay_probe`), a cached
    store-direct lookup in the serving tier. Doubles the probe radius
    until the discovered cluster spheres are expected (Eq. 8) to contain
    ``k`` items, then inverts Eq. 8 for the final radius and issues the
    definitive probe.
    """
    diagonal = math.sqrt(key.shape[0])
    eps = _INITIAL_PROBE_FRACTION * diagonal
    hops = 0
    probes = 0
    while True:
        candidates, probe_hops = probe(eps)
        hops += probe_hops
        probes += 1
        if len(candidates) and expected_items(
            eps, *_spheres_from_entries(candidates), key
        ) >= k:
            break
        if eps >= diagonal:
            break
        eps = min(2.0 * eps, diagonal)
    if not len(candidates):
        return eps, candidates, hops, probes
    eps_star = estimate_epsilon_for_k(
        k, *_spheres_from_entries(candidates), key
    )
    if eps_star < eps:
        candidates, probe_hops = probe(eps_star)
        return eps_star, candidates, hops + probe_hops, probes + 1
    return eps, candidates, hops, probes


def _check_knn_args(k, c: float, top_p) -> None:
    """Reject a bad ``k``, ``C`` or ``top_p`` (sequential and served)."""
    _check_size(k, "k", minimum=1)
    if top_p is not None:
        _check_size(top_p, "top_p")
    if c <= 0:
        raise QueryError(f"C must be > 0, got {c}")


def _peers_to_contact(
    ranked: list[tuple[int, float]], k: int, top_p: int | None
) -> list[tuple[int, float]]:
    """Figure 5 step 4: smallest P whose cumulative score covers ``k`` items."""
    if top_p is not None:
        return ranked[:top_p]
    selected: list[tuple[int, float]] = []
    cumulative = 0.0
    for peer_id, score in ranked:
        selected.append((peer_id, score))
        cumulative += score
        if cumulative >= k:
            break
    return selected


def knn_query(
    network,
    query: np.ndarray,
    k: int,
    *,
    c: float = 1.0,
    top_p: int | None = None,
    origin_peer: int | None = None,
    aggregation: str | None = None,
    exact: bool = False,
) -> KnnResult:
    """Retrieve (approximately) the ``k`` closest items to ``query``.

    Parameters
    ----------
    network:
        A published :class:`repro.core.network.HyperMNetwork`.
    query:
        Query vector in the original space.
    k:
        Number of neighbours requested.
    c:
        The paper's tuning constant ``C`` — total items requested are
        ``C * k`` split proportionally to peer scores; raising it trades
        precision for recall (Section 6.1 quantifies the trade).
    top_p:
        Contact exactly this many top peers; default picks the smallest
        ``P`` whose cumulative score covers ``k`` expected items.
    origin_peer:
        Peer issuing the query.
    aggregation:
        Override the cross-level score policy.
    exact:
        Extension beyond the paper: refine the heuristic answer into a
        *guaranteed* exact k-NN. The k-th retrieved distance upper-bounds
        the true k-th-neighbour distance, so a follow-up range query with
        that radius — which Theorem 4.1 makes dismissal-free — must
        contain every true neighbour. Costs one extra index round plus
        wider peer contacts; see :func:`refine_to_exact`.
    """
    query = check_vector(query, "query", dim=network.dimensionality)
    _check_knn_args(k, c, top_p)
    origin = _default_origin(network) if origin_peer is None else origin_peer
    if origin not in network.peers:
        raise QueryError(f"unknown origin peer {origin}")
    if not network.peers[origin].online:
        raise QueryError(f"origin peer {origin} has left the network")

    recorder = obs_trace.state.recorder
    with recorder.span(
        "query", type="knn", k=k, c=float(c), origin=origin
    ) as query_span, obs_flight.state.recorder.operation(
        "query", type="knn", origin=origin
    ):
        with recorder.span("translate", levels=len(network.levels)):
            keys = _query_keys(network.levels, query)
        per_level: dict = {}
        epsilon_per_level: dict = {}
        index_hops = 0
        for level in network.levels:
            probe = _overlay_probe(
                network.overlays[level],
                network.overlay_node(level, origin),
                keys[level],
            )
            with recorder.span(
                f"sphere_filter[{level}]", level=str(level)
            ) as span:
                eps_l, entries, hops, probes = _discover_level(
                    probe, keys[level], float(k)
                )
                index_hops += hops
                epsilon_per_level[level] = eps_l
                stats: dict = {}
                per_level[level] = level_scores(
                    entries, keys[level], eps_l, stats=stats
                )
                span.set(
                    epsilon=eps_l,
                    candidates=stats["candidates"],
                    pruned=stats["pruned"],
                    surviving=stats["surviving"],
                    peers=len(per_level[level]),
                    hops=hops,
                    probes=probes,
                )

        policy = aggregation or network.config.aggregation
        with recorder.span("score", policy=policy) as span:
            aggregated = aggregate_scores(per_level, policy=policy)
            span.set(peers_scored=len(aggregated))
        ranked = rank_peers(aggregated)
        selected = _peers_to_contact(ranked, k, top_p)
        items = []
        with recorder.span("contact_peers") as contact_span:
            contacted, messages, failed = contact_peers(
                network, selected, origin_peer=origin, max_peers=None
            )
            reached = set(contacted)
            # Shares are allocated over the peers the querier *planned* to
            # use; requests to departed peers are simply lost (MANET churn).
            score_sum = sum(score for __, score in selected)
            for peer_id, score in selected:
                if peer_id not in reached:
                    continue
                if score_sum > 0:
                    share = score / score_sum
                else:
                    share = 1.0 / max(len(selected), 1)
                no_items = int(math.ceil(c * k * share))
                supplied = network.peers[peer_id].nearest_items(
                    query, no_items
                )
                delivered, response_messages = send_response(
                    network, origin, peer_id, len(supplied)
                )
                messages += response_messages
                if not delivered:
                    failed.append(peer_id)  # reply lost despite retries
                    continue
                items.extend(supplied)
            contact_span.set(
                selected=len(selected),
                reached=len(contacted),
                failed=len(failed),
                messages=messages,
                items=len(items),
            )
        query_span.set(index_hops=index_hops, items=len(items))
    metrics = obs_registry.metrics()
    metrics.counter("query.knn.count").inc()
    metrics.counter("query.knn.items").inc(len(items))
    metrics.counter("query.knn.failed_contacts").inc(len(failed))
    metrics.histogram("query.knn.index_hops").observe(index_hops)
    metrics.histogram("query.knn.peers_contacted").observe(len(contacted))
    result = KnnResult(
        items=sort_items_by_distance(items),
        requested_k=k,
        epsilon_per_level=epsilon_per_level,
        peer_scores=aggregated,
        peers_contacted=contacted,
        failed_contacts=failed,
        index_hops=index_hops,
        retrieval_messages=messages,
    )
    if exact:
        return refine_to_exact(
            network, query, result, origin_peer=origin, aggregation=policy
        )
    return result


def refine_to_exact(
    network,
    query: np.ndarray,
    result: KnnResult,
    *,
    origin_peer: int,
    aggregation: str | None = None,
) -> KnnResult:
    """Upgrade a heuristic k-NN result into a guaranteed exact one.

    Let ``d_k`` be the k-th best distance among the already-retrieved
    items (if fewer than ``k`` were retrieved, the radius doubles from the
    best available bound until ``k`` items are found). The true k-th
    neighbour is at distance ``<= d_k``, so a range query of radius
    ``d_k`` — dismissal-free by Theorem 4.1 when every positive-score peer
    is contacted — returns a superset of the true k nearest neighbours.
    The union is re-ranked and the result carries combined accounting.

    Exactness holds while every item's holder is reachable; under churn
    the refinement degrades gracefully to best-effort (the radius-doubling
    loop stops once the radius reaches the unit-cube diagonal
    ``sqrt(d)``, which covers every item).
    """
    from repro.core.queries import range_query as run_range_query

    k = result.requested_k
    ordered = sort_items_by_distance(result.items)
    if len(ordered) >= k:
        radius = ordered[k - 1].distance
    elif ordered:
        radius = max(item.distance for item in ordered)
    else:
        radius = 0.1
    radius = max(radius, 1e-9)

    refined = run_range_query(
        network, query, radius, origin_peer=origin_peer,
        aggregation=aggregation,
    )
    # Items live in the unit cube: past its diagonal a wider radius can
    # reach nothing more, however few items the reachable peers hold.
    diagonal = math.sqrt(network.dimensionality)
    while (
        len(refined.items) < min(k, network.total_items)
        and radius < diagonal
    ):
        radius = min(2.0 * radius, diagonal)
        refined = run_range_query(
            network, query, radius, origin_peer=origin_peer,
            aggregation=aggregation,
        )

    merged: dict[int, object] = {}
    for item in list(result.items) + list(refined.items):
        best = merged.get(item.item_id)
        if best is None or item.distance < best.distance:
            merged[item.item_id] = item
    final = sort_items_by_distance(list(merged.values()))[:k]
    contacted = list(
        dict.fromkeys(result.peers_contacted + refined.peers_contacted)
    )
    return KnnResult(
        items=final,
        requested_k=k,
        epsilon_per_level=result.epsilon_per_level,
        peer_scores=refined.peer_scores or result.peer_scores,
        peers_contacted=contacted,
        failed_contacts=list(
            dict.fromkeys(result.failed_contacts + refined.failed_contacts)
        ),
        index_hops=result.index_hops + refined.index_hops,
        retrieval_messages=result.retrieval_messages
        + refined.retrieval_messages,
    )

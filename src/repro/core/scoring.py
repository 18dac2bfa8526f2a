"""Peer relevance scoring (paper Eq. 1) and cross-level aggregation.

At each level ``l``, a peer's score sums, over its clusters found by the
index query, the volume fraction of the cluster sphere covered by the query
sphere times the cluster's item count::

    Score_l(p) = sum_c  Vol(sphere_c ∩ sphere_q) / Vol(sphere_c) * items_c

:func:`level_scores` evaluates this with the vectorized kernels in
:mod:`repro.geometry.batch`. Overlay range queries return a
:class:`repro.index.CandidateSet` — row indices into the level's shared
columnar store — so the key/radius/item arrays are gathered straight from
the store columns with no per-entry Python loop and no re-stacking cache
(the columnar block *is*
the store, and the candidate set's generation tag raises
:class:`repro.exceptions.StaleCandidateError` instead of silently scoring
withdrawn entries). Centre distances come from one BLAS matvec, every
cluster sphere is scored in a single ``intersection_fraction_batch`` call,
and the per-peer sums reduce with a ``bincount`` over unique peer ids.
Plain entry lists are still accepted (stacked fresh per call) for tests
and legacy callers. :func:`level_scores_scalar` keeps the original
one-sphere-at-a-time path as the numerical oracle — the property tests
and the scoring microbenchmark pin the two to 1e-9, with identical
candidate/pruned/surviving accounting.

Cross-level aggregation uses the paper's *minimum-score* policy by default
(Section 3.2): a peer must look relevant at **every** level; Theorem 4.1
guarantees this prunes no true range-query answers. ``sum`` and
``product`` aggregators are provided for the ablation benchmarks.
:func:`aggregate_scores` stacks the per-level dicts into aligned arrays
once and reduces them with one vectorized min/sum/product pass over the
common-peer intersection.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.geometry.batch import (
    intersection_fraction_batch,
    spheres_intersect_batch,
)
from repro.geometry.intersection import intersection_fraction, spheres_intersect
from repro.index import CandidateSet

#: Floor applied to the per-cluster fraction of an *intersecting* cluster so
#: a tangential touch never zeroes a peer out of the min-aggregation (which
#: would break the Theorem 4.1 no-false-dismissal guarantee). With the
#: log-space volume ratios, positive-volume overlaps always score their true
#: (possibly tiny) fraction; the floor only catches zero-volume tangencies
#: inside the shared :data:`repro.geometry.intersection.INTERSECTION_SLACK`
#: band.
MIN_INTERSECTING_FRACTION = 1e-9


def _fill_stats(stats: dict | None, candidates: int, pruned: int) -> None:
    if stats is not None:
        stats["candidates"] = candidates
        stats["pruned"] = pruned
        stats["surviving"] = candidates - pruned


def _candidate_columns(entries, d: int):
    """``(keys, radii, items, peer_ids, key_sq)`` for a candidate set.

    A :class:`repro.index.CandidateSet` yields its store columns zero-copy
    (one memoized fancy-index gather; raises ``StaleCandidateError`` when
    the store has mutated since the range query). A plain entry list is
    stacked fresh per call — no caching, so dropped entries can never be
    scored from a stale block.
    """
    if isinstance(entries, CandidateSet):
        return entries.columns()
    n = len(entries)
    keys = np.empty((n, d), dtype=np.float64)
    radii = np.empty(n, dtype=np.float64)
    items = np.empty(n, dtype=np.float64)
    peer_ids = np.empty(n, dtype=np.int64)
    for i, entry in enumerate(entries):
        keys[i] = entry.key
        radii[i] = entry.radius
        record = entry.value
        items[i] = record.items
        peer_ids[i] = record.peer_id
    return keys, radii, items, peer_ids, np.einsum("ij,ij->i", keys, keys)


def level_scores(
    entries: list,
    query_center: np.ndarray,
    query_radius: float,
    *,
    stats: dict | None = None,
) -> dict[int, float]:
    """Eq. 1 scores per peer for one level's index-query results (batched).

    Parameters
    ----------
    entries:
        The overlay range query's results at this level: a
        :class:`repro.index.CandidateSet` (consumed zero-copy from the
        shared level store) or a plain list of entries whose ``value``
        is a :class:`repro.core.results.ClusterRecord`.
    query_center / query_radius:
        The query sphere, already translated into this level's key space.
    stats:
        Optional dict the function fills with this level's Theorem 4.1
        filter accounting: ``candidates`` spheres examined, ``pruned``
        (genuinely disjoint from the query ball) and ``surviving``
        (``candidates - pruned``) — the pruning-power numbers traces and
        Figure-style analyses report per level.
    """
    query_center = np.asarray(query_center, dtype=np.float64)
    d = int(query_center.shape[0])
    n = len(entries)
    if n == 0:
        _fill_stats(stats, 0, 0)
        return {}

    keys, radii, items, peer_ids, key_sq = _candidate_columns(entries, d)
    # ||k - q||^2 = ||k||^2 - 2 k.q + ||q||^2 — one BLAS matvec instead of
    # materialising the (n, d) difference matrix (at d = 512 the subtraction
    # alone costs more than the whole Eq. 1 kernel).
    d2 = key_sq - 2.0 * (keys @ query_center)
    d2 += float(query_center @ query_center)
    np.maximum(d2, 0.0, out=d2)
    dists = np.sqrt(d2)
    intersecting = spheres_intersect_batch(radii, query_radius, dists)
    pruned = n - int(np.count_nonzero(intersecting))
    _fill_stats(stats, n, pruned)
    if pruned == n:
        return {}

    fractions = intersection_fraction_batch(
        radii[intersecting], query_radius, dists[intersecting], d
    )
    np.maximum(fractions, MIN_INTERSECTING_FRACTION, where=fractions <= 0.0,
               out=fractions)
    contributions = fractions * items[intersecting]
    unique_peers, inverse = np.unique(
        peer_ids[intersecting], return_inverse=True
    )
    totals = np.bincount(inverse, weights=contributions)
    return {
        int(peer): float(total)
        for peer, total in zip(unique_peers, totals)
    }


def level_scores_scalar(
    entries: list,
    query_center: np.ndarray,
    query_radius: float,
    *,
    stats: dict | None = None,
) -> dict[int, float]:
    """One-sphere-at-a-time Eq. 1 — the oracle for :func:`level_scores`.

    Same contract and same accounting as the batched path; kept as the
    ground truth for the parity tests and the scoring microbenchmark.
    """
    query_center = np.asarray(query_center, dtype=np.float64)
    d = query_center.shape[0]
    scores: dict[int, float] = {}
    pruned = 0
    for entry in entries:
        record = entry.value
        b = float(np.linalg.norm(entry.key - query_center))
        if not spheres_intersect(entry.radius, query_radius, b):
            pruned += 1
            continue  # genuinely disjoint: contributes nothing
        fraction = intersection_fraction(entry.radius, query_radius, b, d)
        if fraction <= 0.0:
            fraction = MIN_INTERSECTING_FRACTION
        scores[record.peer_id] = (
            scores.get(record.peer_id, 0.0) + fraction * record.items
        )
    _fill_stats(stats, len(entries), pruned)
    return scores


def aggregate_scores(
    per_level: dict, *, policy: str = "min"
) -> dict[int, float]:
    """Combine per-level score dicts into one global peer score.

    Parameters
    ----------
    per_level:
        Mapping ``level -> {peer_id: score}``.
    policy:
        ``"min"`` (paper default — peer must appear at every level),
        ``"sum"`` or ``"product"`` (ablations; both also require presence
        at every level to stay comparable with ``min``'s pruning).
    """
    if not per_level:
        return {}
    if policy not in ("min", "sum", "product"):
        raise ValidationError(
            f"unknown aggregation policy {policy!r}; use min, sum or product"
        )
    # Stack each level's dict into sorted (peers, scores) arrays once, then
    # reduce over the common-peer intersection in one vectorized pass.
    levels = []
    for scores in per_level.values():
        n = len(scores)
        peers = np.fromiter(scores.keys(), dtype=np.int64, count=n)
        values = np.fromiter(scores.values(), dtype=np.float64, count=n)
        order = np.argsort(peers)
        levels.append((peers[order], values[order]))
    common = levels[0][0]
    for peers, __ in levels[1:]:
        common = np.intersect1d(common, peers, assume_unique=True)
        if common.size == 0:
            return {}
    stacked = np.empty((len(levels), common.size), dtype=np.float64)
    for i, (peers, values) in enumerate(levels):
        stacked[i] = values[np.searchsorted(peers, common)]
    if policy == "min":
        reduced = stacked.min(axis=0)
    elif policy == "sum":
        reduced = stacked.sum(axis=0)
    else:
        reduced = np.prod(stacked, axis=0)
    return {
        int(peer): float(score) for peer, score in zip(common, reduced)
    }


def rank_peers(aggregated: dict[int, float]) -> list[tuple[int, float]]:
    """Peers by descending score (ties broken by peer id for determinism)."""
    return sorted(aggregated.items(), key=lambda kv: (-kv[1], kv[0]))


def partial_confidence(
    levels_answered: int,
    levels_total: int,
    peers_answered: int,
    peers_attempted: int,
) -> float:
    """Confidence fraction of a partially-answered query (fault contract).

    Under message loss a query no longer gets all the evidence it asked
    for; instead of raising, the query pipeline scores what arrived and
    reports ``confidence = (levels_answered / levels_total) *
    (peers_answered / peers_attempted)`` — 1.0 exactly when nothing was
    lost. A denominator of zero contributes 1.0 (nothing was attempted,
    so nothing was missed).

    Losing index levels keeps the Theorem 4.1 direction of error safe:
    min-aggregation over *fewer* levels can only admit extra candidate
    peers, never prune a true answer's peer. Losing peer responses is
    the lossy part — recall degrades in proportion, which is what the
    resilience evaluation scenario measures.
    """
    if levels_answered > levels_total or peers_answered > peers_attempted:
        raise ValidationError(
            "answered counts cannot exceed attempted counts"
        )
    level_frac = (
        levels_answered / levels_total if levels_total > 0 else 1.0
    )
    peer_frac = (
        peers_answered / peers_attempted if peers_attempted > 0 else 1.0
    )
    return float(level_frac * peer_frac)

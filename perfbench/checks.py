"""Correctness gates, computed by brute force outside every timed region.

Distances are recomputed here from the raw vectors; an item whose true
distance lies within ``BAND`` of the query radius may fall on either side
(the program and the check round differently), and is never a failure.
"""

from __future__ import annotations

import numpy as np

BAND = 1e-7


def _distances(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    return np.sqrt(((data - query) ** 2).sum(axis=1))


class BruteForce:
    """All current items, for whole-network brute force (query workload)."""

    def __init__(self, data: np.ndarray, ids: np.ndarray):
        self.data = data
        self.ids = ids
        self._row = {int(item): row for row, item in enumerate(ids)}
        self._sq = np.einsum("ij,ij->i", data, data)

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """``(queries, items)`` Euclidean distances."""
        sq = self._sq[None, :] - 2.0 * (queries @ self.data.T)
        sq += np.einsum("ij,ij->i", queries, queries)[:, None]
        return np.sqrt(np.maximum(sq, 0.0))

    def range_ok(self, dist: np.ndarray, epsilon: float, ids: np.ndarray) -> bool:
        """Theorem 4.1 and precision: the answer is the brute-force set."""
        rows = [self._row.get(int(item)) for item in ids]
        if None in rows or len(set(rows)) != len(rows):
            return False
        returned = np.zeros(dist.shape[0], dtype=bool)
        returned[rows] = True
        must = dist <= epsilon - BAND
        may = dist <= epsilon + BAND
        return bool(np.all(returned[must]) and not np.any(returned & ~may))

    def knn_check(
        self, dist: np.ndarray, k: int, ids: np.ndarray, distances: np.ndarray
    ) -> tuple[bool, float]:
        """``(items genuine, recall@k against brute-force top-k)``."""
        ids, distances = ids[:k], distances[:k]
        rows = [self._row.get(int(item)) for item in ids]
        if None in rows or len(set(rows)) != len(rows):
            return False, 0.0
        if np.any(np.abs(dist[rows] - distances) > BAND):
            return False, 0.0
        truth = self.ids[np.argpartition(dist, k - 1)[:k]]
        return True, len(set(truth.tolist()) & set(ids.tolist())) / k


def peer_answers_ok(network, query, result, *, epsilon: float | None) -> bool:
    """Each contacted peer's answer equals a brute-force pass over its items.

    For a range answer (``epsilon`` given) that is the peer's items within
    ``epsilon``; for a k-NN answer it is the peer's nearest items, as many
    as it returned. Items from peers that were not contacted fail.
    """
    by_peer: dict[int, list] = {}
    for item in result.items:
        by_peer.setdefault(item.peer_id, []).append(item)
    if not set(by_peer) <= set(result.peers_contacted):
        return False
    for peer_id in result.peers_contacted:
        peer = network.peers[peer_id]
        dist = _distances(peer.data, query)
        truth = dict(zip(peer.item_ids.tolist(), dist.tolist()))
        items = by_peer.get(peer_id, [])
        ids = [item.item_id for item in items]
        if len(set(ids)) != len(ids):
            return False
        for item in items:
            true = truth.get(item.item_id)
            if true is None or abs(true - item.distance) > BAND:
                return False
        returned = set(ids)
        others = np.asarray(
            [d for item_id, d in truth.items() if item_id not in returned]
        )
        if epsilon is not None:
            if any(truth[i] > epsilon + BAND for i in returned):
                return False
            if others.size and others.min() <= epsilon - BAND:
                return False
        elif items and others.size:
            if others.min() < max(item.distance for item in items) - BAND:
                return False
    return True


def replication_failures(network) -> int:
    """Spheres whose holders differ from the nodes their sphere meets.

    Figure 6: after publication every sphere is stored at each node whose
    zone the sphere intersects (Euclidean box distance within the radius),
    and nowhere else.
    """
    failures = 0
    for overlay in network.overlays.values():
        store = overlay.level_store
        rows = store.live_rows()
        if rows.size == 0:
            continue
        keys = np.stack([store.key_of(row) for row in rows])
        radii = np.asarray([store.radius_of(row) for row in rows])
        node_ids = overlay.node_ids
        lows, highs, owner = [], [], []
        for index, node_id in enumerate(node_ids):
            for zone in overlay.node(node_id).zones:
                lows.append(zone.lows)
                highs.append(zone.highs)
                owner.append(index)
        lows, highs = np.asarray(lows), np.asarray(highs)
        gaps = np.maximum(
            np.maximum(lows[None] - keys[:, None], keys[:, None] - highs[None]),
            0.0,
        )
        dist = np.sqrt((gaps ** 2).sum(axis=2))
        slack = dist - radii[:, None]
        expected = np.zeros((rows.size, len(node_ids)), dtype=bool)
        ambiguous = np.zeros_like(expected)
        np.logical_or.at(expected.T, np.asarray(owner), (slack <= 1e-12).T)
        np.logical_or.at(
            ambiguous.T, np.asarray(owner), (np.abs(slack) <= BAND).T
        )
        held = np.stack([
            np.isin(rows, overlay.node(node_id).membership.rows())
            for node_id in node_ids
        ], axis=1)
        wrong = (held != expected) & ~ambiguous
        failures += int(np.count_nonzero(wrong.any(axis=1)))
    return failures

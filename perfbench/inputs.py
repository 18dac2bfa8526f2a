"""Seeded, NumPy-only inputs for the benchmark workloads.

The corpus mimics the paper's Section 5.1 partition — every peer holds
items from a few shared interests, and every interest is spread over 8 to
10 peers — without running the program's own k-means: interests are drawn
directly as smooth profiles, so a change to ``repro.clustering`` can never
change the inputs it is measured on. Everything derives from the workload
seed through independent child streams, so the corpus, the query stream
and the delta stream each repeat exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Inclusive range of peers sharing one interest (paper Section 5.1).
PEERS_PER_INTEREST = (8, 10)
#: Interests per peer, on average (the paper partitions 10 per peer).
INTERESTS_PER_PEER = 10
#: Step of the random walk that draws an interest profile.
PROFILE_STEP = 0.08
#: Per-coordinate spread of items around their interest profile.
ITEM_SPREAD = 0.05
#: Per-coordinate jitter that turns a corpus item into a query.
QUERY_JITTER = 0.02


def instance_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th independent instance."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Corpus:
    """Per-peer item matrices plus what later draws need to stay in-model."""

    profiles: np.ndarray  # (interests, d)
    peer_interests: list  # per peer: array of interest indices
    peers: list  # per peer: (data, item_ids)
    next_item_id: int

    def all_items(self) -> np.ndarray:
        return np.vstack([data for data, __ in self.peers])


def _profiles(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Smooth, centred random-walk profiles inside ``[0.1, 0.9]^d``."""
    walks = np.cumsum(rng.normal(0.0, PROFILE_STEP, (count, dim)), axis=1)
    walks += 0.5 - walks.mean(axis=1, keepdims=True)
    return np.clip(walks, 0.1, 0.9)


def _items_around(
    rng: np.random.Generator, profiles: np.ndarray, interests, count: int
) -> np.ndarray:
    picks = rng.choice(np.asarray(interests), size=count)
    noise = rng.normal(0.0, ITEM_SPREAD, (count, profiles.shape[1]))
    return np.clip(profiles[picks] + noise, 0.0, 1.0)


def make_corpus(seed: int, n_peers: int, items_per_peer: int, dim: int) -> Corpus:
    """Shared-interest corpus: ``n_peers`` peers of ``items_per_peer`` items."""
    rng = np.random.default_rng([seed, 0])
    low, high = PEERS_PER_INTEREST
    n_interests = max(1, round(n_peers * INTERESTS_PER_PEER / ((low + high) / 2)))
    profiles = _profiles(rng, n_interests, dim)
    owned: list[list[int]] = [[] for __ in range(n_peers)]
    for interest in range(n_interests):
        sharers = min(int(rng.integers(low, high + 1)), n_peers)
        for peer in rng.choice(n_peers, size=sharers, replace=False):
            owned[int(peer)].append(interest)
    for interests in owned:
        if not interests:
            interests.append(int(rng.integers(n_interests)))
    peers = []
    next_id = 0
    for interests in owned:
        data = _items_around(rng, profiles, interests, items_per_peer)
        ids = np.arange(next_id, next_id + items_per_peer, dtype=np.int64)
        next_id += items_per_peer
        peers.append((data, ids))
    return Corpus(
        profiles=profiles,
        peer_interests=[np.asarray(i) for i in owned],
        peers=peers,
        next_item_id=next_id,
    )


class QueryStream:
    """Endless distinct queries: jittered copies of random corpus items.

    Chunks are drawn on demand, outside any timed region; the sequence is
    a pure function of the seed, however it is chunked.
    """

    def __init__(self, corpus: Corpus, seed: int, stream: int):
        self._items = corpus.all_items()
        self._rng = np.random.default_rng([seed, stream])

    def take(self, count: int) -> np.ndarray:
        rows = self._rng.integers(self._items.shape[0], size=count)
        jitter = self._rng.normal(
            0.0, QUERY_JITTER, (count, self._items.shape[1])
        )
        return np.clip(self._items[rows] + jitter, 0.0, 1.0)


def zipf_picks(
    seed: int, stream: int, pool: int, count: int, exponent: float = 1.0
) -> np.ndarray:
    """``count`` pool indices drawn Zipf(``exponent``) over a fresh ranking.

    Each stream ranks the pool by its own random permutation, so the hot
    set changes from one stream to the next and a run averages over many
    hot sets rather than hinging on which request one seed made hottest.
    """
    weights = 1.0 / np.arange(1, pool + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    rng = np.random.default_rng([seed, stream])
    ranking = rng.permutation(pool)
    return ranking[rng.choice(pool, size=count, p=weights)]


class DeltaStream:
    """New items for randomly chosen peers, drawn from their own interests."""

    def __init__(self, corpus: Corpus, seed: int, stream: int):
        self._corpus = corpus
        self._rng = np.random.default_rng([seed, stream])
        self._next_id = corpus.next_item_id

    def take(self, n_peers: int, items: int) -> list:
        """``[(peer_id, data, item_ids)]`` for ``n_peers`` distinct peers."""
        corpus = self._corpus
        chosen = self._rng.choice(len(corpus.peers), size=n_peers, replace=False)
        out = []
        for peer in chosen:
            data = _items_around(
                self._rng, corpus.profiles, corpus.peer_interests[peer], items
            )
            ids = np.arange(self._next_id, self._next_id + items, dtype=np.int64)
            self._next_id += items
            out.append((int(peer), data, ids))
        return out

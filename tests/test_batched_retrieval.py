"""Direct retrieval (query phase s3): the batched lower-bounded search.

:func:`repro.core.peer.range_search_peers` filters every contacted
peer's items in one Theorem 3.1 lower-bound pass and runs the exact
distance test on the survivors only. Its answers must equal, with
``==``, those of a full scan of each peer (:func:`full_scan`, the
per-peer loop it replaced, kept here as the oracle): same items, same
distances, same order.

One seeded range query over a lossy fabric is also pinned: which items
come back, from which peers, at which distances, which contacts fail
and how many retrieval messages the query costs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.core.peer import HyperMPeer, haar_signature, range_search_peers
from repro.core.results import RetrievedItem, distances_to_query
from repro.faults import FaultPlan
from repro.serve import RangeRequest, ServeEngine
from repro.utils.validation import check_vector

DIMS = (2, 4, 8, 64, 512)


def full_scan(peer, query, radius) -> list:
    """The per-peer full scan: every held item through the exact test."""
    query = check_vector(query, "query", dim=peer.dimensionality)
    dists = distances_to_query(peer.data, query)
    hits = np.flatnonzero(dists <= radius + 1e-12)
    return [
        RetrievedItem(
            item_id=int(peer.item_ids[i]),
            peer_id=peer.peer_id,
            distance=float(dists[i]),
        )
        for i in hits
    ]


def _peers(rng, dim, sizes):
    """Peers holding ``sizes`` random items; a size of 0 is a peer whose
    only item ``remove_items`` took away."""
    peers = []
    next_item = 0
    for peer_id, size in enumerate(sizes):
        rows = max(size, 1)
        ids = np.arange(next_item, next_item + rows)
        next_item += rows
        peer = HyperMPeer(peer_id, rng.random((rows, dim)), ids)
        if not size:
            peer.remove_items(ids)
        peers.append(peer)
    return peers


def _assert_matches_oracle(peers, query, epsilon):
    found = range_search_peers(peers, query, epsilon)
    assert list(found) == [peer.peer_id for peer in peers]
    for peer in peers:
        assert found[peer.peer_id] == full_scan(peer, query, epsilon)
        assert peer.range_search(query, epsilon) == found[peer.peer_id]
    return found


class TestOracle:
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_full_scan(self, dim):
        rng = np.random.default_rng(dim)
        peers = _peers(rng, dim, [40, 1, 0, 25, 60])
        data = np.vstack([peer.data for peer in peers])
        for query in [rng.random(dim), data[7], data[70]]:
            dists = np.sort(distances_to_query(data, query))
            for epsilon in (0.0, *dists[[0, 3, 20, -1]], 0.3 * math.sqrt(dim)):
                _assert_matches_oracle(peers, query, epsilon)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from(DIMS),
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
        fraction=st.floats(0.0, 1.2),
    )
    def test_property_matches_full_scan(self, dim, sizes, seed, fraction):
        rng = np.random.default_rng(seed)
        peers = _peers(rng, dim, sizes)
        query = rng.random(dim)
        _assert_matches_oracle(peers, query, fraction * math.sqrt(dim) / 2)

    @pytest.mark.parametrize("dim", DIMS)
    def test_point_query_finds_every_duplicate(self, dim):
        rng = np.random.default_rng(dim + 1)
        rows = rng.random((10, dim))
        rows[[2, 5, 9]] = rows[4]
        peer = HyperMPeer(3, rows)
        other = HyperMPeer(4, np.vstack([rows[4], rng.random((5, dim))]))
        found = _assert_matches_oracle([peer, other], rows[4], 0.0)
        assert [item.item_id for item in found[3]] == [2, 4, 5, 9]
        assert [item.item_id for item in found[4]] == [0]
        assert {item.distance for item in found[3] + found[4]} == {0.0}

    @pytest.mark.parametrize("dim", DIMS)
    def test_items_exactly_at_epsilon(self, dim):
        rng = np.random.default_rng(dim + 2)
        query = np.full(dim, 0.25) + rng.random(dim) / 4
        width = dim // math.gcd(dim, 8)
        rows = np.tile(query, (4, 1))
        rows[0, 0] += 0.5  # one coordinate off: the bound is loose
        rows[1, :width] += 0.125  # one whole block off: the bound is tight
        rows[2, :width] -= 0.125
        rows[3] += 0.1  # block-constant: bound equals the distance
        peer = HyperMPeer(0, rows)
        for row in rows:
            epsilon = float(distances_to_query(row[None], query)[0])
            found = _assert_matches_oracle([peer], query, epsilon)
            assert found[0], epsilon

    @pytest.mark.parametrize("dim", DIMS)
    def test_epsilon_beyond_cube_diagonal_returns_everything(self, dim):
        rng = np.random.default_rng(dim + 3)
        peers = _peers(rng, dim, [12, 0, 7])
        query = rng.random(dim)
        found = _assert_matches_oracle(peers, query, 4 * math.sqrt(dim))
        assert sum(len(items) for items in found.values()) == 19

    def test_no_peers(self):
        assert range_search_peers([], np.zeros(4), 0.5) == {}

    def test_query_validated(self):
        peer = HyperMPeer(0, np.zeros((3, 8)))
        with pytest.raises(Exception):
            range_search_peers([peer], np.zeros(4), 0.1)
        with pytest.raises(Exception):
            range_search_peers([peer], np.full(8, np.nan), 0.1)

    def test_list_and_float32_queries(self):
        rng = np.random.default_rng(5)
        peers = _peers(rng, 16, [20, 20])
        query = rng.random(16).astype(np.float32)
        expected = range_search_peers(peers, query.astype(np.float64), 1.0)
        assert range_search_peers(peers, query, 1.0) == expected
        assert range_search_peers(peers, query.tolist(), 1.0) == expected


class TestSignatureCache:
    def test_signature_is_a_lower_bound(self):
        rng = np.random.default_rng(6)
        for dim in DIMS:
            rows = rng.random((50, dim))
            query = rng.random(dim)
            bound = np.linalg.norm(
                haar_signature(rows) - haar_signature(query), axis=1
            )
            assert np.all(bound <= distances_to_query(rows, query) + 1e-12)

    def test_built_lazily_and_cached(self, rng):
        peer = HyperMPeer(0, rng.random((10, 16)))
        assert peer._signature is None
        signature = peer.signature
        assert peer.signature is signature
        assert np.array_equal(signature, haar_signature(peer.data))

    def test_add_items_invalidates(self, rng):
        peer = HyperMPeer(0, rng.random((10, 16)))
        stale = peer.signature
        new = rng.random((3, 16))
        peer.add_items(new, np.arange(100, 103))
        assert peer.signature is not stale
        assert np.array_equal(peer.signature, haar_signature(peer.data))
        found = _assert_matches_oracle([peer], new[1], 0.0)
        assert [item.item_id for item in found[0]] == [101]

    def test_remove_items_invalidates(self, rng):
        peer = HyperMPeer(0, rng.random((10, 16)))
        query = peer.data[4].copy()
        assert range_search_peers([peer], query, 0.0)[0]
        peer.remove_items([4])
        assert np.array_equal(peer.signature, haar_signature(peer.data))
        assert _assert_matches_oracle([peer], query, 0.0) == {0: []}

    def test_peer_emptied_by_remove_items(self, rng):
        emptied, other = _peers(rng, 16, [6, 8])
        query = emptied.data[0].copy()
        emptied.remove_items(emptied.item_ids)
        assert emptied.signature.shape == (0, 8)
        found = _assert_matches_oracle([emptied, other], query, 2.0)
        assert found[emptied.peer_id] == []
        assert found[other.peer_id]

    def test_reassigning_data_invalidates(self, rng):
        peer = HyperMPeer(0, rng.random((10, 16)))
        peer.signature
        peer.data = rng.random((10, 16))
        assert np.array_equal(peer.signature, haar_signature(peer.data))
        _assert_matches_oracle([peer], peer.data[3], 0.0)


def _build(seed=5, n_peers=8, dim=16, items=30):
    network = HyperMNetwork(
        dim, HyperMConfig(levels_used=3, n_clusters=3), rng=seed
    )
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        network.add_peer(data_rng.random((items, dim)))
    network.publish_all()
    return network


def _expected_items(network, result, query, epsilon):
    """Full-scan answers of the peers a range query reached, by distance."""
    items = []
    for peer_id in result.peers_contacted:
        items.extend(full_scan(network.peers[peer_id], query, epsilon))
    return sorted(items, key=lambda item: (item.distance, item.item_id))


class TestNetworkRetrieval:
    def test_departed_peers(self):
        network = _build(seed=9)
        network.depart(2)
        network.depart(5)
        rng = np.random.default_rng(10)
        for __ in range(4):
            query = rng.random(16)
            result = network.range_query(query, 1.3, origin_peer=0)
            assert {2, 5}.isdisjoint(result.peers_contacted)
            assert set(result.failed_contacts) <= {2, 5}
            assert result.items == _expected_items(
                network, result, query, 1.3
            )

    def test_serve_engine_list_and_float32_queries(self):
        network = _build(seed=12)
        engine = ServeEngine(network)
        rng = np.random.default_rng(13)
        for __ in range(3):
            query = rng.random(16).astype(np.float32)
            sequential = network.range_query(
                query.astype(np.float64), 1.2, origin_peer=0
            )
            assert sequential.items
            for form in (query, query.tolist()):
                served = engine.execute(
                    RangeRequest(query=form, epsilon=1.2, origin_peer=0)
                )
                assert served.items == sequential.items
                assert served.peers_contacted == sequential.peers_contacted


def test_lossy_fabric_range_query_is_pinned():
    network = _build()
    network.fabric.install_faults(FaultPlan(loss=0.5, seed=8))
    query = np.random.default_rng(11).random(16)
    result = network.range_query(query, 1.2, origin_peer=0)
    assert [
        (item.item_id, item.peer_id, item.distance) for item in result.items
    ] == [
        (19, 6, 0.9518445105762477),
        (1, 6, 1.0314613990712553),
        (3, 3, 1.0777214495136236),
        (9, 3, 1.1347414380421166),
        (16, 1, 1.1396448630086808),
        (17, 0, 1.170388136919743),
        (13, 7, 1.1917586742234552),
    ]
    assert result.failed_contacts == [2, 4, 5]
    assert result.peers_contacted == [0, 6, 7, 1, 3]
    assert result.retrieval_messages == 27
    assert result.degraded
    assert result.confidence == 0.625

"""Unit tests for the k-NN heuristic's internal machinery."""

import numpy as np
import pytest

from repro.core.knn import _discover_level, _overlay_probe, _peers_to_contact
from repro.core.results import ClusterRecord
from repro.overlay.can import CANNetwork
from repro.serve.batch import fresh_candidates


class TestPeersToContact:
    def test_explicit_top_p(self):
        ranked = [(1, 50.0), (2, 30.0), (3, 5.0)]
        assert _peers_to_contact(ranked, 10, top_p=2) == ranked[:2]

    def test_cumulative_score_rule(self):
        ranked = [(1, 6.0), (2, 3.0), (3, 2.0), (4, 1.0)]
        # k=8: 6 < 8, 6+3 = 9 >= 8 → two peers.
        assert _peers_to_contact(ranked, 8, top_p=None) == ranked[:2]

    def test_takes_all_when_scores_insufficient(self):
        ranked = [(1, 1.0), (2, 1.0)]
        assert _peers_to_contact(ranked, 100, top_p=None) == ranked

    def test_single_peer_covers(self):
        ranked = [(1, 50.0), (2, 30.0)]
        assert _peers_to_contact(ranked, 10, top_p=None) == ranked[:1]

    def test_empty_ranking(self):
        assert _peers_to_contact([], 5, top_p=None) == []


class TestDiscoverLevel:
    def _overlay_with_clusters(self, spheres):
        can = CANNetwork(2, rng=0)
        ids = can.grow(8)
        for i, (center, radius, items) in enumerate(spheres):
            record = ClusterRecord(peer_id=i % 3, items=items, level_name="A")
            can.insert(ids[0], center, record, radius=radius)
        return can, ids[0]

    def _discover(self, overlay, origin, key, k):
        return _discover_level(_overlay_probe(overlay, origin, key), key, k)

    def test_finds_enough_clusters(self):
        spheres = [
            ([0.5, 0.5], 0.05, 40),
            ([0.55, 0.5], 0.05, 40),
            ([0.9, 0.9], 0.02, 40),
        ]
        overlay, origin = self._overlay_with_clusters(spheres)
        eps, entries, hops, probes = self._discover(
            overlay, origin, np.array([0.5, 0.5]), 10.0
        )
        assert eps > 0
        assert len(entries)  # found the nearby clusters
        assert hops >= 0
        assert probes >= 1

    def test_empty_overlay_returns_no_entries(self):
        can = CANNetwork(2, rng=1)
        ids = can.grow(4)
        eps, entries, hops, probes = self._discover(
            can, ids[0], np.array([0.5, 0.5]), 5.0
        )
        assert len(entries) == 0
        # Nothing to find: the probe doubles out to the whole key space.
        assert eps == pytest.approx(np.sqrt(2.0))

    def test_probes_expand_until_coverage(self):
        # A single far-away cluster: discovery must expand to reach it.
        spheres = [([0.95, 0.95], 0.02, 100)]
        overlay, origin = self._overlay_with_clusters(spheres)
        eps, entries, __, probes = self._discover(
            overlay, origin, np.array([0.05, 0.05]), 5.0
        )
        assert len(entries) == 1
        assert probes > 1

    def test_hops_and_probes_are_summed_over_probe_calls(self):
        calls = []
        overlay, origin = self._overlay_with_clusters([([0.9, 0.9], 0.02, 3)])
        walk = _overlay_probe(overlay, origin, np.array([0.1, 0.1]))

        def probe(eps):
            calls.append(eps)
            candidates, __ = walk(eps)
            return candidates, 7

        eps, __, hops, probes = _discover_level(
            probe, np.array([0.1, 0.1]), 50.0
        )
        assert probes == len(calls)
        assert hops == 7 * len(calls)
        # Radii only grow while probing; the Eq. 8 probe comes last.
        assert calls[:-1] == sorted(calls[:-1])
        assert eps == calls[-1]

    def test_overlay_walk_and_store_direct_probes_agree(self):
        """The sequential and serving probes drive one identical loop."""
        rng = np.random.default_rng(5)
        can = CANNetwork(3, rng=2)
        ids = can.grow(24)
        for i in range(60):
            record = ClusterRecord(
                peer_id=i % 7, items=int(rng.integers(1, 30)), level_name="A"
            )
            can.insert(
                ids[i % len(ids)], rng.random(3), record,
                radius=float(rng.uniform(0.0, 0.15)),
            )
        store = can.level_store

        def store_probe(key):
            return lambda eps: (fresh_candidates(store, key, eps), 0)

        for trial in range(12):
            key = rng.random(3)
            k = float(rng.integers(1, 80))
            walked = _discover_level(
                _overlay_probe(can, ids[trial], key), key, k
            )
            direct = _discover_level(store_probe(key), key, k)
            assert walked[0] == direct[0]  # ε bit-identical
            assert np.array_equal(walked[1].rows, direct[1].rows)
            assert walked[3] == direct[3]  # same number of probes
            assert direct[2] == 0  # store-direct charges no hops


class TestKnnEdgeCases:
    def test_k_exceeds_total_items(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 10_000)
        assert len(result.items) > 0

    def test_duplicate_queries_deterministic_scores(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        q = wl.ground_truth.data[3]
        a = wl.network.knn_query(q, 5)
        b = wl.network.knn_query(q, 5)
        assert a.item_ids == b.item_ids
        assert a.peer_scores == b.peer_scores

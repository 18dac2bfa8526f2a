"""Tests for the Figure 5 k-NN heuristic."""

import numpy as np
import pytest

from repro.evaluation.metrics import precision_recall
from repro.exceptions import QueryError


class TestKnnQueries:
    def test_returns_items(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[int(rng.integers(wl.ground_truth.n_items))]
        result = wl.network.knn_query(query, 5)
        assert result.requested_k == 5
        assert len(result.items) >= 1

    def test_reasonable_recall(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        recalls = []
        for __ in range(6):
            query = wl.ground_truth.data[
                int(rng.integers(wl.ground_truth.n_items))
            ]
            truth = wl.ground_truth.knn(query, 5)
            result = wl.network.knn_query(query, 5)
            recalls.append(precision_recall(result.item_ids, truth).recall)
        assert np.mean(recalls) > 0.4  # paper balances ~0.5+; small net is noisy

    def test_self_is_always_found(self, tiny_histogram_workload):
        """The query item itself is its own nearest neighbour; the index
        must lead back to its holder."""
        wl = tiny_histogram_workload
        peer = wl.network.peers[1]
        query = peer.data[3]
        result = wl.network.knn_query(query, 3)
        assert any(item.distance <= 1e-9 for item in result.items)

    def test_items_sorted(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        dists = [item.distance for item in result.items]
        assert dists == sorted(dists)

    def test_top_k_ids_size(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 4)
        assert len(result.top_k_ids()) <= 4

    def test_c_increases_retrieved_volume(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[10]
        small = wl.network.knn_query(query, 8, c=1.0)
        large = wl.network.knn_query(query, 8, c=2.0)
        assert len(large.items) >= len(small.items)

    def test_top_p_limits_contacts(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5, top_p=2)
        assert len(result.peers_contacted) <= 2

    def test_epsilon_estimates_recorded(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        assert set(result.epsilon_per_level) == set(wl.network.levels)
        assert all(e >= 0 for e in result.epsilon_per_level.values())

    def test_invalid_k(self, tiny_histogram_workload):
        with pytest.raises(QueryError):
            tiny_histogram_workload.network.knn_query(
                tiny_histogram_workload.ground_truth.data[0], 0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 2.5},
            {"k": 2.5, "exact": True},
            {"k": 5, "top_p": -1},
            {"k": 5, "top_p": 1.5},
        ],
    )
    def test_bad_sizes_rejected(self, tiny_histogram_workload, kwargs):
        # ``top_p=-1`` used to drop the last ranked peer, and ``k=2.5``
        # with ``exact=True`` died inside the refinement's list indexing.
        with pytest.raises(QueryError):
            tiny_histogram_workload.network.knn_query(
                tiny_histogram_workload.ground_truth.data[0], **kwargs
            )

    def test_invalid_c(self, tiny_histogram_workload):
        with pytest.raises(QueryError):
            tiny_histogram_workload.network.knn_query(
                tiny_histogram_workload.ground_truth.data[0], 5, c=0.0
            )

    def test_index_hops_charged(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        assert result.index_hops >= 0

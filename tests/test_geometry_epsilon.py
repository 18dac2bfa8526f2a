"""Tests for the Eq. 8 inversion (expected items -> query radius)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering.spheres import ClusterSphere
from repro.exceptions import ValidationError
from repro.geometry.epsilon import estimate_epsilon_for_k, expected_items


def stack(spheres, d=4):
    """Sphere columns ``(centroids, radii, items)``, as the k-NN path passes."""
    return (
        np.array([s.centroid for s in spheres]).reshape(-1, d),
        np.array([s.radius for s in spheres], dtype=np.float64),
        np.array([s.items for s in spheres], dtype=np.float64),
    )


def make_spheres(rng, n, d=4):
    return stack(
        [
            ClusterSphere(
                centroid=rng.random(d),
                radius=float(rng.uniform(0.05, 0.3)),
                items=int(rng.integers(5, 50)),
            )
            for __ in range(n)
        ],
        d,
    )


class TestExpectedItems:
    def test_empty(self):
        assert expected_items(1.0, *stack([], 3), np.zeros(3)) == 0.0

    def test_full_coverage_counts_everything(self, rng):
        spheres = make_spheres(rng, 5)
        total = spheres[2].sum()
        assert np.isclose(
            expected_items(10.0, *spheres, np.zeros(4)), total
        )

    def test_zero_radius_counts_containing_singletons(self):
        q = np.array([0.5, 0.5])
        spheres = stack([
            ClusterSphere(q.copy(), 0.0, 7),
            ClusterSphere(np.array([0.9, 0.9]), 0.0, 3),
        ], 2)
        assert expected_items(0.0, *spheres, q) == 7.0

    def test_monotone_in_epsilon(self, rng):
        spheres = make_spheres(rng, 8)
        q = rng.random(4)
        values = [
            expected_items(e, *spheres, q) for e in np.linspace(0, 3, 30)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_concentric_analytic(self):
        sphere = stack([ClusterSphere(np.zeros(4), 1.0, 100)])
        # eps = (1/2)^(1/4) covers exactly half the ball's volume.
        eps = 0.5 ** 0.25
        assert np.isclose(expected_items(eps, *sphere, np.zeros(4)), 50.0)

    def test_mismatched_columns_rejected(self, rng):
        centroids, radii, items = make_spheres(rng, 3)
        with pytest.raises(ValidationError):
            expected_items(0.5, centroids, radii[:2], items, np.zeros(4))
        with pytest.raises(ValidationError):
            expected_items(0.5, centroids, radii, items, np.zeros(3))


class TestEstimateEpsilon:
    @pytest.mark.parametrize("method", ["brentq", "newton"])
    def test_inverts_expected_items(self, rng, method):
        spheres = make_spheres(rng, 10)
        q = rng.random(4)
        total = spheres[2].sum()
        for k in (1.0, total / 4, total / 2):
            eps = estimate_epsilon_for_k(k, *spheres, q, method=method)
            assert np.isclose(
                expected_items(eps, *spheres, q), k, rtol=1e-3, atol=1e-3
            )

    def test_k_exceeding_total_returns_cover_radius(self, rng):
        spheres = make_spheres(rng, 4)
        centroids, radii, items = spheres
        q = rng.random(4)
        total = items.sum()
        eps = estimate_epsilon_for_k(total * 2, *spheres, q)
        cover = max(
            float(np.linalg.norm(q - c)) + r for c, r in zip(centroids, radii)
        )
        assert np.isclose(eps, cover)
        assert np.isclose(expected_items(eps, *spheres, q), total)

    def test_no_spheres(self):
        assert estimate_epsilon_for_k(5, *stack([], 3), np.zeros(3)) == 0.0

    def test_k_zero(self, rng):
        assert estimate_epsilon_for_k(
            0, *make_spheres(rng, 3), np.zeros(4)
        ) == 0.0

    def test_negative_k_rejected(self, rng):
        with pytest.raises(ValidationError):
            estimate_epsilon_for_k(-1, *make_spheres(rng, 3), np.zeros(4))

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValidationError):
            estimate_epsilon_for_k(
                1, *make_spheres(rng, 3), np.zeros(4), method="bogus"
            )

    def test_query_on_singleton_centroid(self):
        """Exact-coincidence singleton: k already satisfied at eps = 0."""
        q = np.array([0.3, 0.7])
        spheres = stack([ClusterSphere(q.copy(), 0.0, 10)], 2)
        assert estimate_epsilon_for_k(5, *spheres, q) == 0.0

    @given(k_frac=st.floats(min_value=0.05, max_value=0.95))
    def test_brentq_and_newton_agree(self, k_frac):
        rng = np.random.default_rng(0)
        spheres = make_spheres(rng, 6)
        q = rng.random(4)
        k = k_frac * spheres[2].sum()
        a = estimate_epsilon_for_k(k, *spheres, q, method="brentq")
        b = estimate_epsilon_for_k(k, *spheres, q, method="newton")
        assert np.isclose(a, b, rtol=1e-3, atol=1e-4)

    def test_monotone_in_k(self, rng):
        spheres = make_spheres(rng, 8)
        q = rng.random(4)
        total = spheres[2].sum()
        ks = np.linspace(1, total - 1, 10)
        eps = [estimate_epsilon_for_k(k, *spheres, q) for k in ks]
        assert all(b >= a - 1e-9 for a, b in zip(eps, eps[1:]))

"""Numerical inversion of Eq. 8: from a result count ``k`` to a radius ``ε``.

Eq. 8 estimates how many items a range query of radius ``ε`` retrieves::

    k = sum_c  frac(sphere_c, sphere_q(ε)) * items_c

The fraction (Eq. 7) is a high-order trigonometric-polynomial function of
``ε`` with no analytical inverse, so — as the paper suggests — we invert it
numerically. The function is monotonically non-decreasing in ``ε``, which
makes bracketed root-finding (``brentq``) both robust and fast; a Newton
variant is exposed too since the paper names Newton's method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from repro.exceptions import ConvergenceError, ValidationError
from repro.geometry.batch import intersection_fraction_batch
from repro.utils.validation import check_positive, check_vector


def _sphere_arrays(
    centroids: np.ndarray,
    radii: np.ndarray,
    items: np.ndarray,
    query_center: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check sphere columns; return (radii, items, centre-distance) arrays."""
    centroids = np.asarray(centroids, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    n = radii.shape[0] if radii.ndim == 1 else -1
    if centroids.shape != (n, query_center.shape[0]) or items.shape != (n,):
        raise ValidationError(
            f"sphere columns must be (n, {query_center.shape[0]}) centroids "
            f"with (n,) radii and items; got {centroids.shape}, "
            f"{radii.shape} and {items.shape}"
        )
    diff = centroids - query_center
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return radii, items, dists


def expected_items(
    epsilon: float,
    centroids: np.ndarray,
    radii: np.ndarray,
    items: np.ndarray,
    query_center: np.ndarray,
    *,
    d: int | None = None,
) -> float:
    """Eq. 8 right-hand side: expected items inside a radius-``epsilon`` query.

    Evaluated with the vectorized intersection kernel: one
    :func:`repro.geometry.batch.intersection_fraction_batch` call over all
    reachable spheres (this sits inside the k-NN heuristic's root-finding
    loop, which evaluates it dozens of times per level per query).

    Parameters
    ----------
    epsilon:
        Query radius.
    centroids / radii / items:
        The reachable cluster spheres as columns — ``(n, d)`` centres,
        ``(n,)`` radii and ``(n,)`` item counts, all in one subspace (the
        first three of :meth:`repro.index.CandidateSet.columns`).
    query_center:
        Query point in that subspace.
    d:
        Dimensionality used for the volume formulas; defaults to the
        subspace dimensionality.
    """
    check_positive(epsilon, "epsilon", strict=False)
    query_center = check_vector(query_center, "query_center")
    radii, items, dists = _sphere_arrays(centroids, radii, items, query_center)
    if not radii.size:
        return 0.0
    dim = d if d is not None else query_center.shape[0]
    fractions = intersection_fraction_batch(radii, epsilon, dists, dim)
    return float(fractions @ items)


def estimate_epsilon_for_k(
    k: float,
    centroids: np.ndarray,
    radii: np.ndarray,
    items: np.ndarray,
    query_center: np.ndarray,
    *,
    d: int | None = None,
    tol: float = 1e-6,
    method: str = "brentq",
    max_iter: int = 200,
) -> float:
    """Invert Eq. 8: the smallest ``ε`` whose expected retrieval reaches ``k``.

    When ``k`` meets or exceeds the total number of summarised items, the
    radius that covers every reachable sphere is returned (no larger radius
    can help). With no reachable spheres at all, 0.0 is returned and the
    caller should fall back to flooding.

    Parameters
    ----------
    centroids / radii / items:
        Sphere columns, as for :func:`expected_items`.
    method:
        ``"brentq"`` (default, bracketed, always converges on monotone
        input) or ``"newton"`` (the paper's named method, with bisection
        safeguard on overshoot).
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    query_center = check_vector(query_center, "query_center")
    radii, items, dists = _sphere_arrays(centroids, radii, items, query_center)
    if not radii.size or k == 0:
        return 0.0
    dim = d if d is not None else query_center.shape[0]
    total_items = float(items.sum())
    eps_max = float((dists + radii).max())
    if k >= total_items:
        return float(eps_max)

    def gap(eps: float) -> float:
        # Arrays are stacked once; each root-finding step is one kernel call.
        fractions = intersection_fraction_batch(radii, eps, dists, dim)
        return float(fractions @ items) - k

    if gap(eps_max) <= 0.0:
        # Numerical slack at full coverage; the max radius is the answer.
        return float(eps_max)
    if gap(0.0) >= 0.0:
        # Zero-radius spheres exactly at the query already supply k items.
        return 0.0
    if method == "brentq":
        return float(brentq(gap, 0.0, eps_max, xtol=tol, maxiter=max_iter))
    if method == "newton":
        return _safeguarded_newton(gap, 0.0, eps_max, tol, max_iter)
    raise ValidationError(f"unknown method {method!r}; use 'brentq' or 'newton'")


def _safeguarded_newton(
    gap, lo: float, hi: float, tol: float, max_iter: int
) -> float:
    """Newton iteration with finite-difference slope and bisection fallback."""
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = gap(x)
        if abs(g) < tol:
            return float(x)
        if g > 0:
            hi = x
        else:
            lo = x
        h = max(1e-8, 1e-6 * max(abs(x), 1.0))
        slope = (gap(x + h) - g) / h
        if slope > 0 and math.isfinite(slope):
            step = x - g / slope
        else:
            step = 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) < tol:
            return float(step)
        x = step
    raise ConvergenceError(
        f"Newton inversion of Eq. 8 did not converge in {max_iter} iterations"
    )

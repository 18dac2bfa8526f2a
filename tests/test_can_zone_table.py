"""The zone-table walks reproduce the per-object CAN walks exactly.

Routing, replication, replica extension and the range-query flood read
per-node keys from one vectorised :class:`ZoneTable` pass. Over seeded
random overlays — 1–4-d, grown by joins, thinned by leaves into pinwheel
partitions, re-joined, rebalanced at off-centre fractions — and with and
without a route penalty, this checks them against the walks in
:mod:`tests.can_oracle`:

* every per-node routing key equals the per-zone scalar distance bit for
  bit (an ulp of reduction-order drift fails);
* ``route_to_owner`` returns the oracle's ``(owner, path)``;
* every per-node sphere hit equals ``Zone.intersects_sphere`` per zone;
* replicate, extend and flood visit the oracle's nodes in its order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OverlayError
from repro.overlay.can import CANNetwork, Zone
from repro.overlay.can.replication import extend_replication, replicate_sphere
from repro.overlay.can.routing import route_to_owner
from repro.overlay.can.table import ZoneTable
from tests.can_oracle import (
    assert_zone_table_matches,
    oracle_route,
    oracle_spread,
    snapshot_distance,
)


def _zone_counts(can) -> dict[int, int]:
    return {nid: len(can.node(nid).zones) for nid in can.node_ids}


def _build(dim: int, seed: int):
    """Grow, thin into pinwheels, re-join, rebalance off-centre.

    Returns the overlay and how many leaves ended in a pinwheel takeover
    (a surviving node gaining a zone).
    """
    rng = np.random.default_rng(seed)
    can = CANNetwork(dim, rng=seed, node_id_offset=1000 * (seed + 1))
    can.grow(40)
    assert_zone_table_matches(can)
    takeovers = 0
    while len(can) > 6 and takeovers < 2:
        before = _zone_counts(can)
        ids = can.node_ids
        can.leave(ids[int(rng.integers(len(ids)))])
        after = _zone_counts(can)
        takeovers += any(after[n] > before[n] for n in after)
        assert_zone_table_matches(can)
    for __ in range(4):
        can.join(rng.random(dim))
        assert_zone_table_matches(can)
    for __ in range(4):
        ids = can.node_ids
        can.rebalance_zone(
            ids[int(rng.integers(len(ids)))],
            fraction=float(rng.uniform(0.15, 0.85)),
        )
        assert_zone_table_matches(can)
    return can, takeovers


def _points(can, rng, n: int) -> np.ndarray:
    """Random points plus tie-prone ones: zone corners, the 0/1 faces."""
    dim = can.dimensionality
    table = can.zone_table
    corners = np.concatenate([table.lows, table.highs])
    picks = corners[rng.integers(len(corners), size=n)]
    faces = rng.random((n, dim))
    faces[rng.random((n, dim)) < 0.4] = 0.0
    faces[rng.random((n, dim)) < 0.3] = 1.0
    return np.concatenate([rng.random((n, dim)), picks, faces])


def _penalty(node_id: int) -> float:
    return float((node_id * 7919) % 5)


CASES = [(dim, seed) for dim in (1, 2, 3, 4) for seed in (0, 1, 2)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"d{c[0]}-s{c[1]}")
def overlay(request):
    dim, seed = request.param
    can, __ = _build(dim, seed)
    assert any(len(can.node(n).zones) > 1 for n in can.node_ids)
    return can, np.random.default_rng(seed + 100)


def test_route_keys_are_bit_identical(overlay):
    can, rng = overlay
    first = can.zone_table.first_id
    for point in _points(can, rng, 15):
        keys = can.zone_table.route_keys(point)
        for nid in can.node_ids:
            want = snapshot_distance(can.node(nid).zones, point)
            assert keys[nid - first] == want, (nid, point)


@pytest.mark.parametrize("penalty", [None, _penalty], ids=["plain", "penalty"])
def test_routes_match_oracle(overlay, penalty):
    can, rng = overlay
    ids = can.node_ids
    for point in _points(can, rng, 15):
        for start in rng.choice(ids, size=3, replace=False).tolist():
            got = route_to_owner(can, start, point, penalty=penalty)
            assert got == oracle_route(can, start, point, penalty=penalty)
        assert got[0] == can.owner_of(point)


def test_sphere_hits_match_zones(overlay):
    can, rng = overlay
    first = can.zone_table.first_id
    zones = [z for nid in can.node_ids for z in can.node(nid).zones]
    for center in _points(can, rng, 10):
        # Tangent radii put some zone exactly on the hit threshold.
        tangent = [
            zones[i].euclidean_distance_to(center) - 1e-12
            for i in rng.integers(len(zones), size=3)
        ]
        for radius in [0.0, float(rng.uniform(0.0, 0.4)), *tangent]:
            if radius < 0.0:
                continue
            hits = can.zone_table.sphere_hits(center, radius)
            for nid in can.node_ids:
                want = any(
                    z.intersects_sphere(center, radius)
                    for z in can.node(nid).zones
                )
                assert hits[nid - first] == want, (nid, center, radius)


def test_walks_match_oracle(overlay):
    can, rng = overlay
    store = can.level_store
    ids = can.node_ids
    for center in _points(can, rng, 6):
        radius = float(rng.uniform(0.01, 0.3))
        origin = int(rng.choice(ids))
        owner, __ = oracle_route(can, origin, center)
        flood = can.range_query(origin, center, radius)
        assert flood.nodes_visited == [
            owner, *oracle_spread(can, [owner], center, radius)
        ]

        row = store.add(center, radius, "probe")
        can.node(owner).add_row(row)
        expected = oracle_spread(can, [owner], center, radius)
        assert replicate_sphere(can, owner, row) == expected

        holders = [owner, *expected]
        grown = radius * 1.7
        store.update_entry(store.entry_id_of(row), radius=grown)
        expected = oracle_spread(can, holders, center, grown)
        assert extend_replication(can, row, holders) == expected
        held = {n for n in ids if row in can.node(n).membership}
        assert held == {
            n for n in ids
            if any(z.intersects_sphere(center, grown)
                   for z in can.node(n).zones)
        } | set(holders)


def test_leaves_reach_pinwheel_partitions():
    # Thinning must exercise the multi-zone takeover the walks handle.
    assert _build(4, 0)[1] > 0


def test_table_grows_by_doubling_and_replace_checks_rows():
    table = ZoneTable(2, first_id=5)
    lower, upper = Zone.full(2).split()
    table.append(5, lower)
    for node_id in range(6, 40):
        table.append(node_id, upper)
    assert len(table) == 35
    assert table.owner.tolist() == list(range(5, 40))
    table.replace(5, lower, 40, upper)
    assert table.owner[0] == 40
    with pytest.raises(OverlayError):
        table.replace(5, lower, 5, lower)
    assert table.owner_of(np.array([0.2, 0.2])) is None
    assert table.owner_of(np.array([0.7, 0.2])) == 40

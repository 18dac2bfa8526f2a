"""Per-object reference walks for the CAN overlay (test oracle).

The overlay's walks read per-node keys from one vectorised zone-table
pass. These are the walks they replaced: every hop asks each neighbour's
zone-set snapshot for :meth:`Zone.contains`, :meth:`Zone.torus_distance_to`
and :meth:`Zone.intersects_sphere` one zone at a time. The table-driven
walks must reproduce them exactly — owners, paths, visit orders and the
distances themselves, to the last bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import RoutingError


def snapshot_distance(zones, point: np.ndarray) -> float:
    """Min torus distance from a zone-set snapshot to ``point``.

    A zone that outright contains the point gets distance -1 so it always
    sorts first (torus distance would report 0 for seam-touching zones
    that do *not* contain it).
    """
    if any(zone.contains(point) for zone in zones):
        return -1.0
    return min(zone.torus_distance_to(point) for zone in zones)


def oracle_route(network, start_id: int, point, *, penalty=None):
    """Greedy DFS routing over neighbour snapshots; ``(owner, path)``."""
    visited = {start_id}
    stack = [start_id]
    path: list[int] = []
    max_steps = max(8 * len(network.node_ids), 64)
    while stack:
        if len(path) > max_steps:
            raise RoutingError(f"routing exceeded {max_steps} steps")
        current = network.node(stack[-1])
        if any(zone.contains(point) for zone in current.zones):
            return current.node_id, path
        candidates = sorted(
            (
                snapshot_distance(zones, point),
                penalty(node_id) if penalty is not None else 0.0,
                node_id,
            )
            for node_id, zones in current.neighbors.items()
            if node_id not in visited
        )
        if candidates:
            *__, next_id = candidates[0]
            visited.add(next_id)
            stack.append(next_id)
            path.append(next_id)
        else:
            stack.pop()
            if stack:
                path.append(stack[-1])
    raise RoutingError("neighbour graph disconnected")


def oracle_spread(network, holder_ids, center, radius) -> list[int]:
    """BFS from ``holder_ids`` over sphere-meeting snapshots; newly reached
    nodes in visit order (the replicate / extend / flood walk)."""
    visited = set(holder_ids)
    reached: list[int] = []
    queue = deque(visited)
    while queue:
        current = network.node(queue.popleft())
        for neighbor_id, zones in current.neighbors.items():
            if neighbor_id in visited:
                continue
            if not any(z.intersects_sphere(center, radius) for z in zones):
                continue
            visited.add(neighbor_id)
            reached.append(neighbor_id)
            queue.append(neighbor_id)
    return reached


def assert_zone_table_matches(can) -> None:
    """The zone table holds exactly the nodes' zones, and they tile."""
    table = can.zone_table
    rows = sorted(
        (int(owner), tuple(lows), tuple(highs))
        for owner, lows, highs in zip(
            table.owner.tolist(), table.lows.tolist(), table.highs.tolist()
        )
    )
    zones = sorted(
        (node_id, tuple(zone.lows.tolist()), tuple(zone.highs.tolist()))
        for node_id in can.node_ids
        for zone in can.node(node_id).zones
    )
    assert rows == zones
    volume = float(np.prod(table.highs - table.lows, axis=1).sum())
    assert abs(volume - 1.0) < 1e-9, volume

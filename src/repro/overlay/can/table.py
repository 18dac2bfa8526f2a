"""The zone table: every zone of one CAN overlay as three columns.

``owner (Z,)``, ``lows (Z, m)`` and ``highs (Z, m)`` hold one row per
zone, multi-zone (pinwheel) nodes included. Greedy routing, sphere
replication and the range-query flood each start with one vectorised
geometry pass over the table that yields one scalar per node — a routing
key, or a sphere hit — and their Python walks then only read those
scalars over the nodes' neighbour ids. A pass costs O(Z·m) NumPy work.

Every expression mirrors its per-zone counterpart in
:class:`repro.overlay.can.zone.Zone` operation for operation, so keys and
hits are bit-identical to the per-object walk.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OverlayError

_INITIAL_CAPACITY = 16


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, bit-identical to ``np.linalg.norm(row)``.

    ``np.linalg.norm`` of a vector is ``sqrt(v.dot(v))``; a stacked
    vector-by-vector ``matmul`` reaches the same dot kernel row by row,
    whereas an axis-wise ``sum`` or ``einsum`` adds the squares in another
    order and can differ in the last ulp — enough to flip a routing tie.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


class ZoneTable:
    """Columnar zone state of one :class:`~repro.overlay.can.CANNetwork`.

    Node ids are ``>= first_id`` (the overlay's ``node_id_offset``); the
    per-walk passes return lists indexed by ``node_id - first_id``.
    Row order carries no meaning.
    """

    def __init__(self, dimensionality: int, first_id: int = 0):
        self.first_id = int(first_id)
        self._dim = int(dimensionality)
        self._size = 0
        self._span = 0
        self._owner = np.empty(0, dtype=np.int64)
        self._lows = np.empty((0, self._dim), dtype=np.float64)
        self._highs = np.empty((0, self._dim), dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    @property
    def owner(self) -> np.ndarray:
        """Owning node id per zone row."""
        return self._owner[: self._size]

    @property
    def lows(self) -> np.ndarray:
        """Lower corner per zone row."""
        return self._lows[: self._size]

    @property
    def highs(self) -> np.ndarray:
        """Upper corner per zone row."""
        return self._highs[: self._size]

    # -- maintenance ------------------------------------------------------------

    def assign(self, owners, lows, highs) -> None:
        """Replace every row with the given columns in one pass."""
        self._owner = np.array(owners, dtype=np.int64).reshape(-1)
        self._lows = np.array(lows, dtype=np.float64).reshape(-1, self._dim)
        self._highs = np.array(highs, dtype=np.float64).reshape(-1, self._dim)
        self._size = self._owner.shape[0]
        self._span = (
            int(self._owner.max()) - self.first_id + 1 if self._size else 0
        )

    def rebuild(self, nodes) -> None:
        """Replace every row with the zones the ``nodes`` own."""
        rows = [(node.node_id, zone) for node in nodes for zone in node.zones]
        self.assign(
            [node_id for node_id, __ in rows],
            [zone.lows for __, zone in rows],
            [zone.highs for __, zone in rows],
        )

    def append(self, node_id: int, zone) -> None:
        """Add one zone row (capacity grows by doubling)."""
        if self._size == self._owner.shape[0]:
            self._grow_to(self._size + 1)
        self._write(self._size, node_id, zone)
        self._size += 1

    def replace(self, node_id: int, zone, new_owner: int, new_zone) -> None:
        """Rewrite the row holding ``node_id``'s ``zone`` in place."""
        match = np.flatnonzero(
            (self.owner == node_id)
            & np.all(self.lows == zone.lows, axis=1)
            & np.all(self.highs == zone.highs, axis=1)
        )
        if match.size != 1:
            raise OverlayError(
                f"zone table has {match.size} rows for a zone of node {node_id}"
            )
        self._write(int(match[0]), new_owner, new_zone)

    def _write(self, row: int, node_id: int, zone) -> None:
        self._owner[row] = node_id
        self._lows[row] = zone.lows
        self._highs[row] = zone.highs
        self._span = max(self._span, int(node_id) - self.first_id + 1)

    def _grow_to(self, capacity: int) -> None:
        new_cap = max(self._owner.shape[0] * 2, _INITIAL_CAPACITY)
        while new_cap < capacity:
            new_cap *= 2
        owner = np.empty(new_cap, dtype=np.int64)
        owner[: self._size] = self.owner
        self._owner = owner
        for name in ("_lows", "_highs"):
            col = np.empty((new_cap, self._dim), dtype=np.float64)
            col[: self._size] = getattr(self, name)[: self._size]
            setattr(self, name, col)

    # -- per-walk geometry passes -----------------------------------------------

    def _contains(self, point: np.ndarray) -> np.ndarray:
        """Per row: :meth:`Zone.contains`."""
        lows, highs = self.lows, self.highs
        at_outer_face = (highs == 1.0) & (point == 1.0)
        return np.all(
            (point >= lows) & ((point < highs) | at_outer_face), axis=1
        )

    def route_keys(self, point) -> list[float]:
        """Greedy-routing key per node for target ``point``.

        ``-1.0`` when one of the node's zones contains the point, else
        the min torus distance from its zones to the point
        (:meth:`Zone.torus_distance_to`); ``inf`` for ids owning no row.
        """
        p = np.asarray(point, dtype=np.float64)
        lows, highs = self.lows, self.highs
        direct = np.maximum(np.maximum(lows - p, p - highs), 0.0)
        shifted_up = np.maximum(
            np.maximum(lows - (p + 1.0), (p + 1.0) - highs), 0.0
        )
        shifted_down = np.maximum(
            np.maximum(lows - (p - 1.0), (p - 1.0) - highs), 0.0
        )
        per_dim = np.minimum(direct, np.minimum(shifted_up, shifted_down))
        keys = _row_norms(per_dim)
        keys[self._contains(p)] = -1.0
        per_node = np.full(self._span, np.inf)
        np.minimum.at(per_node, self.owner - self.first_id, keys)
        return per_node.tolist()

    def sphere_hits(self, center, radius: float) -> list[bool]:
        """Per node: does any of its zones meet the Euclidean ball?

        The per-row test is :meth:`Zone.intersects_sphere`.
        """
        c = np.asarray(center, dtype=np.float64)
        gaps = np.maximum(np.maximum(self.lows - c, c - self.highs), 0.0)
        rows_hit = _row_norms(gaps) <= radius + 1e-12
        per_node = np.zeros(self._span, dtype=bool)
        per_node[self.owner[rows_hit] - self.first_id] = True
        return per_node.tolist()

    def owner_of(self, point) -> int | None:
        """Id of the node whose zone contains ``point`` (``None``: no zone)."""
        rows = np.flatnonzero(
            self._contains(np.asarray(point, dtype=np.float64))
        )
        return int(self.owner[rows[0]]) if rows.size else None

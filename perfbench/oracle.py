"""The benchmark's own brute-force model of the dataset: uid -> bounds.

Every answer the timed loop collected is checked against this model after
the loop, never inside it.  The model follows each *acked* write batch, so
a read is compared with the dataset as it stood when the read was sent.
Distances use the same AABB point-distance formula as the kernels, and kNN
answers are compared by distance with a tolerance, so ties at the k-th
place may break either way.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.mutations import Delete, Insert, Move, Mutation

KNN_TOLERANCE = 1e-9


def _bounds(obj: Any) -> tuple[float, float, float, float, float, float]:
    b = obj.aabb
    return (b.min_x, b.min_y, b.min_z, b.max_x, b.max_y, b.max_z)


class Model:
    """Live uids and their AABBs as numpy columns."""

    def __init__(self, objects: Iterable[Any]) -> None:
        objects = list(objects)
        self.uids = np.array([o.uid for o in objects], dtype=np.int64)
        self.bounds = np.array([_bounds(o) for o in objects], dtype=np.float64).reshape(-1, 6)
        self.live = np.ones(len(objects), dtype=bool)
        self.row = {int(uid): i for i, uid in enumerate(self.uids)}
        self.size = len(objects)

    def apply(self, mutations: Sequence[Mutation]) -> None:
        for mutation in mutations:
            if isinstance(mutation, Insert):
                self._append(mutation.obj)
            elif isinstance(mutation, Delete):
                self.live[self.row.pop(mutation.uid)] = False
            elif isinstance(mutation, Move):
                self.bounds[self.row[mutation.uid]] = _bounds(mutation.obj)
            else:
                raise TypeError(f"not a mutation: {mutation!r}")

    def _append(self, obj: Any) -> None:
        if self.size == len(self.uids):
            grow = max(64, self.size)
            self.uids = np.concatenate([self.uids, np.zeros(grow, dtype=np.int64)])
            self.bounds = np.concatenate([self.bounds, np.zeros((grow, 6))])
            self.live = np.concatenate([self.live, np.zeros(grow, dtype=bool)])
        i = self.size
        self.uids[i] = obj.uid
        self.bounds[i] = _bounds(obj)
        self.live[i] = True
        self.row[obj.uid] = i
        self.size += 1

    @property
    def num_live(self) -> int:
        return len(self.row)

    def snapshot(self) -> dict[int, tuple[float, ...]]:
        """``uid -> bounds`` of every live object."""
        return {uid: tuple(float(v) for v in self.bounds[i]) for uid, i in self.row.items()}

    # -- brute-force answers ------------------------------------------------
    def range(self, box: Any) -> list[int]:
        """Sorted uids whose closed AABB intersects ``box``."""
        b = self.bounds[: self.size]
        hit = (
            self.live[: self.size]
            & (b[:, 0] <= box.max_x) & (b[:, 3] >= box.min_x)
            & (b[:, 1] <= box.max_y) & (b[:, 4] >= box.min_y)
            & (b[:, 2] <= box.max_z) & (b[:, 5] >= box.min_z)
        )
        return sorted(int(u) for u in self.uids[: self.size][hit])

    def distances(self, point: Any) -> np.ndarray:
        """Distance of every row to ``point``; ``inf`` for dead rows."""
        b = self.bounds[: self.size]
        p = np.array([float(point.x), float(point.y), float(point.z)])
        gaps = np.maximum(np.maximum(b[:, :3] - p, p - b[:, 3:]), 0.0)
        return np.where(self.live[: self.size], np.sqrt((gaps * gaps).sum(axis=1)), np.inf)

    # -- checks --------------------------------------------------------------
    def range_ok(self, box: Any, got: Sequence[int]) -> bool:
        return sorted(got) == self.range(box)

    def knn_ok(self, point: Any, k: int, got: Sequence[tuple[int, float]]) -> bool:
        """``got`` holds ``k`` distinct live uids at the k smallest distances."""
        k = min(k, self.num_live)
        if len(got) != k or len({u for u, _ in got}) != k:
            return False
        dist = self.distances(point)
        want = np.sort(np.partition(dist, k - 1)[:k])
        true = []
        for uid, reported in got:
            i = self.row.get(int(uid))
            if i is None or abs(dist[i] - reported) > KNN_TOLERANCE:
                return False
            true.append(dist[i])
        return bool(np.all(np.abs(np.sort(true) - want) <= KNN_TOLERANCE))

    def recovered_ok(self, objects: Iterable[Any]) -> bool:
        """Exactly the model's live uids, each with exactly its bounds."""
        objects = list(objects)
        got = {o.uid: _bounds(o) for o in objects}
        return len(got) == len(objects) and got == self.snapshot()

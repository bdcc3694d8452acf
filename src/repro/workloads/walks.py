"""Walkthrough workloads: "interactively walk through a model" (paper §3.2).

A branch walk follows one neuron branch with a sliding query window — the
structure-following access pattern SCOUT targets.  The walk records which
branch is followed so the evaluation can score prefetch accuracy against
ground truth.  Random walks model the demo's "moving through the model
randomly" contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.neuro.circuit import Circuit
from repro.utils.rng import make_rng

__all__ = ["BranchWalk", "branch_walk", "random_walk"]


@dataclass(frozen=True)
class BranchWalk:
    """A query sequence plus the ground truth it was derived from."""

    queries: list[AABB]
    followed_branch: int  # branch_id; -1 for random walks
    path: list[Vec3]  # window centres


def _branch_polyline(circuit: Circuit, branch_id: int) -> list[Vec3]:
    segments = circuit.branch_segments(branch_id)
    if not segments:
        raise WorkloadError(f"branch {branch_id} has no segments")
    points = [segments[0].p0]
    points.extend(s.p1 for s in segments)
    return points


def _quantize(point: Vec3, tol: float = 1e-6) -> tuple[int, int, int]:
    return (round(point.x / tol), round(point.y / tol), round(point.z / tol))


def _branch_start_index(circuit: Circuit) -> dict[tuple[int, int, int], list[int]]:
    """Map (quantized branch start point) -> branch ids starting there."""
    index: dict[tuple[int, int, int], list[int]] = {}
    for branch_id, segments in circuit.branch_map().items():
        index.setdefault(_quantize(segments[0].p0), []).append(branch_id)
    return index


def _walk_chain(
    circuit: Circuit,
    start_branch: int,
    min_length: float,
    rng,
    start_index: dict[tuple[int, int, int], list[int]] | None = None,
) -> tuple[list[Vec3], int]:
    """Follow ``start_branch`` and keep extending through child branches
    until the polyline is at least ``min_length`` long (or the tree ends)."""
    if start_index is None:
        start_index = _branch_start_index(circuit)
    points = _branch_polyline(circuit, start_branch)
    current = start_branch
    guard = 0
    while _polyline_length(points) < min_length and guard < 32:
        guard += 1
        # Children of a branch start where it ends.
        candidates = [
            bid for bid in start_index.get(_quantize(points[-1]), []) if bid != current
        ]
        if not candidates:
            break
        current = candidates[int(rng.integers(0, len(candidates)))]
        extension = _branch_polyline(circuit, current)
        points.extend(extension[1:])
    return points, start_branch


def _polyline_length(points: list[Vec3]) -> float:
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def _resample(points: list[Vec3], step: float) -> list[Vec3]:
    """Equal-arc-length resampling of a polyline."""
    if len(points) < 2:
        return list(points)
    out = [points[0]]
    remaining = step
    i = 0
    current = points[0]
    while i < len(points) - 1:
        nxt = points[i + 1]
        seg_len = current.distance_to(nxt)
        if seg_len < 1e-12:
            i += 1
            current = nxt
            continue
        if seg_len >= remaining:
            current = current.lerp(nxt, remaining / seg_len)
            out.append(current)
            remaining = step
        else:
            remaining -= seg_len
            current = nxt
            i += 1
    return out


def branch_walk(
    circuit: Circuit,
    window_extent: float,
    step_fraction: float = 0.5,
    min_steps: int = 8,
    seed: int | np.random.Generator = 0,
    branch_id: int | None = None,
) -> BranchWalk:
    """A walkthrough following one branch chain of ``circuit``.

    The window advances ``step_fraction * window_extent`` per query along
    the branch polyline — consecutive windows overlap, as in the demo's
    interactive navigation.  A branch chain long enough for ``min_steps``
    windows is selected at random when ``branch_id`` is not given.
    """
    if window_extent <= 0:
        raise WorkloadError("window_extent must be positive")
    if not 0 < step_fraction <= 1:
        raise WorkloadError("step_fraction must be in (0, 1]")
    rng = make_rng(seed)
    step = window_extent * step_fraction
    needed_length = step * min_steps

    start_index = _branch_start_index(circuit)
    if branch_id is not None:
        chain, followed = _walk_chain(circuit, branch_id, needed_length, rng, start_index)
    else:
        branch_ids = circuit.branch_ids()
        followed = -1
        chain = []
        # Try a bounded number of random branches, keep the longest chain.
        best: tuple[float, list[Vec3], int] | None = None
        for _ in range(min(24, len(branch_ids))):
            candidate = int(branch_ids[int(rng.integers(0, len(branch_ids)))])
            points, start = _walk_chain(circuit, candidate, needed_length, rng, start_index)
            length = _polyline_length(points)
            if best is None or length > best[0]:
                best = (length, points, start)
            if length >= needed_length:
                break
        assert best is not None
        _, chain, followed = best

    centers = _resample(chain, step)
    if len(centers) < 2:
        raise WorkloadError("selected branch chain is too short for a walk")
    queries = [AABB.from_center_extent(c, window_extent) for c in centers]
    return BranchWalk(queries=queries, followed_branch=followed, path=centers)


def random_walk(
    circuit: Circuit,
    window_extent: float,
    steps: int,
    step_fraction: float = 0.5,
    seed: int | np.random.Generator = 0,
) -> BranchWalk:
    """A window drifting in uniformly random directions (no structure)."""
    if steps < 1:
        raise WorkloadError("steps must be >= 1")
    rng = make_rng(seed)
    world = circuit.bounding_box()
    center = world.center()
    step = window_extent * step_fraction
    centers = [center]
    for _ in range(steps - 1):
        direction = Vec3(float(rng.normal()), float(rng.normal()), float(rng.normal()))
        if direction.norm() == 0.0:
            direction = Vec3(1.0, 0.0, 0.0)
        center = center + direction.normalized() * step
        # Reflect back into the world box.
        center = Vec3(
            min(max(center.x, world.min_x), world.max_x),
            min(max(center.y, world.min_y), world.max_y),
            min(max(center.z, world.min_z), world.max_z),
        )
        centers.append(center)
    queries = [AABB.from_center_extent(c, window_extent) for c in centers]
    return BranchWalk(queries=queries, followed_branch=-1, path=centers)

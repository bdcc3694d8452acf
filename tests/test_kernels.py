"""Kernel parity: every batch kernel agrees elementwise across backends.

The NumPy backend must be a drop-in for the scalar reference on randomized
geometry — masks bitwise equal, distances within float tolerance — and the
consumers (FLAT, R-tree, the joins) must return identical results whichever
backend is active.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.core.flat.index import FLATIndex
from repro.core.touch.join import touch_join
from repro.core.touch.nested_loop import nested_loop_join
from repro.core.touch.pbsm import pbsm_join
from repro.core.touch.plane_sweep import plane_sweep_join
from repro.core.touch.stats import CandidateBatch, JoinStats, segment_touch_refine
from repro.errors import GeometryError
from repro.geometry.aabb import AABB
from repro.geometry.distance import segment_segment_distance, segments_touch
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3
from repro.hilbert.curve import HilbertEncoder3D, hilbert_encode
from repro.objects import BoxObject
from repro.rtree.bulk import str_bulk_load

BACKENDS = kernels.available_backends()


def random_box(rng: random.Random, span: float = 60.0, extent: float = 18.0) -> AABB:
    center = (rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-span, span))
    sizes = (rng.uniform(0.1, extent), rng.uniform(0.1, extent), rng.uniform(0.1, extent))
    return AABB.from_center_extent(center, sizes)


def random_segment(rng: random.Random, uid: int) -> Segment:
    p0 = Vec3(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-40, 40))
    if rng.random() < 0.1:
        p1 = p0  # degenerate: point-like segment
    else:
        p1 = p0 + Vec3(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-6, 6))
    return Segment(
        uid, p0, p1, rng.uniform(0.0, 2.0), neuron_id=rng.randrange(6), branch_id=0
    )


def both_backends(fn):
    """Evaluate ``fn`` under every backend, return {backend: result}."""
    out = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = fn()
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20130622)


class TestBackendSelection:
    def test_python_backend_is_always_available(self):
        assert "python" in BACKENDS

    def test_numpy_backend_present_in_this_environment(self):
        assert "numpy" in BACKENDS

    def test_set_backend_round_trip(self):
        original = kernels.active_backend()
        try:
            for backend in BACKENDS:
                kernels.set_backend(backend)
                assert kernels.active_backend() == backend
                assert kernels.pack_token() == backend
        finally:
            kernels.set_backend(original)

    def test_unknown_backend_rejected(self):
        with pytest.raises(GeometryError):
            kernels.set_backend("fortran")

    def test_use_backend_restores_previous(self):
        before = kernels.active_backend()
        with kernels.use_backend("python"):
            assert kernels.active_backend() == "python"
        assert kernels.active_backend() == before

    def test_counters_track_batches_and_elements(self, rng):
        boxes = [random_box(rng) for _ in range(10)]
        packed = kernels.pack_boxes(boxes)
        before_batches, before_elements = kernels.counters.snapshot()
        kernels.box_intersects(packed, boxes[0])
        after_batches, after_elements = kernels.counters.snapshot()
        assert after_batches == before_batches + 1
        assert after_elements == before_elements + 10


class TestBoxKernelParity:
    def test_box_intersects_matches_scalar_aabb(self, rng):
        boxes = [random_box(rng) for _ in range(400)]
        query = random_box(rng, span=20.0, extent=50.0)
        for eps in (0.0, 2.5):
            masks = both_backends(
                lambda: [
                    bool(v)
                    for v in kernels.box_intersects(kernels.pack_boxes(boxes), query, eps)
                ]
            )
            expected = [query.intersects_expanded(b, eps) for b in boxes]
            # intersects_expanded expands self; the kernel expands the batch
            # side — the predicate is symmetric, so both must agree.
            expected_other = [b.intersects_expanded(query, eps) for b in boxes]
            assert expected == expected_other
            for backend in BACKENDS:
                assert masks[backend] == expected

    def test_box_contains_matches_scalar_aabb(self, rng):
        boxes = [random_box(rng, extent=8.0) for _ in range(300)]
        query = random_box(rng, span=10.0, extent=80.0)
        masks = both_backends(
            lambda: [bool(v) for v in kernels.box_contains(kernels.pack_boxes(boxes), query)]
        )
        expected = [query.contains_box(b) for b in boxes]
        for backend in BACKENDS:
            assert masks[backend] == expected

    def test_point_box_distance_matches_scalar(self, rng):
        boxes = [random_box(rng) for _ in range(300)]
        point = Vec3(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50))
        distances = both_backends(
            lambda: list(kernels.point_box_distance(kernels.pack_boxes(boxes), point))
        )
        expected = [b.min_distance_to_point(point) for b in boxes]
        for backend in BACKENDS:
            assert distances[backend] == pytest.approx(expected, abs=1e-9)

    def test_box_box_distance_matches_scalar(self, rng):
        boxes = [random_box(rng) for _ in range(300)]
        query = random_box(rng)
        distances = both_backends(
            lambda: list(kernels.box_box_distance(kernels.pack_boxes(boxes), query))
        )
        expected = [b.min_distance_to_box(query) for b in boxes]
        for backend in BACKENDS:
            assert distances[backend] == pytest.approx(expected, abs=1e-9)

    def test_empty_batches(self):
        query = AABB(0, 0, 0, 1, 1, 1)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                packed = kernels.pack_boxes([])
                assert kernels.batch_len(packed) == 0
                assert list(kernels.box_intersects(packed, query)) == []
                assert list(kernels.point_box_distance(packed, Vec3.zero())) == []
                assert kernels.nonzero(kernels.box_intersects(packed, query)) == []

    def test_slice_packed_window(self, rng):
        boxes = [random_box(rng) for _ in range(50)]
        query = random_box(rng, extent=60.0)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                packed = kernels.pack_boxes(boxes)
                window = kernels.slice_packed(packed, 10, 30)
                assert kernels.batch_len(window) == 20
                full = [bool(v) for v in kernels.box_intersects(packed, query)]
                sliced = [bool(v) for v in kernels.box_intersects(window, query)]
                assert sliced == full[10:30]

    def test_a_float64_column_packs_as_itself_or_as_its_rows(self):
        column = np.arange(18, dtype=float).reshape(3, 6)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                packed = kernels.pack_bounds(column)
                assert [tuple(map(float, r)) for r in packed] == [tuple(r) for r in column.tolist()]
                if backend == "numpy":
                    assert packed is column

    def test_nonzero_and_count(self, rng):
        boxes = [random_box(rng) for _ in range(200)]
        query = random_box(rng, extent=70.0)
        results = both_backends(
            lambda: (
                kernels.nonzero(kernels.box_intersects(kernels.pack_boxes(boxes), query)),
                kernels.count(kernels.box_intersects(kernels.pack_boxes(boxes), query)),
            )
        )
        reference = results["python"]
        assert reference[1] == len(reference[0])
        for backend in BACKENDS:
            assert results[backend][0] == reference[0]
            assert results[backend][1] == reference[1]


class TestSegmentKernelParity:
    def test_segment_distances_match_scalar(self, rng):
        segments = [random_segment(rng, i) for i in range(250)]
        probe = random_segment(rng, 999)
        distances = both_backends(
            lambda: list(
                kernels.segment_distances(kernels.pack_segments(segments), probe.p0, probe.p1)
            )
        )
        expected = [
            segment_segment_distance(s.p0, s.p1, probe.p0, probe.p1) for s in segments
        ]
        for backend in BACKENDS:
            assert distances[backend] == pytest.approx(expected, abs=1e-9)

    def test_capsule_pairs_touch_matches_segments_touch(self, rng):
        side_a = [random_segment(rng, i) for i in range(250)]
        side_b = [random_segment(rng, 1000 + i) for i in range(250)]
        for eps in (0.0, 1.5):
            masks = both_backends(
                lambda: [
                    bool(v)
                    for v in kernels.capsule_pairs_touch(
                        kernels.pack_segments(side_a), kernels.pack_segments(side_b), eps
                    )
                ]
            )
            expected = [segments_touch(a, b, eps) for a, b in zip(side_a, side_b)]
            for backend in BACKENDS:
                assert masks[backend] == expected


class TestHilbertKernelParity:
    def test_hilbert_keys_match_scalar_encode(self, rng):
        for order in (1, 4, 10):
            limit = 1 << order
            coords = [
                (rng.randrange(limit), rng.randrange(limit), rng.randrange(limit))
                for _ in range(300)
            ]
            keys = both_backends(lambda: [int(k) for k in kernels.hilbert_keys(coords, order)])
            expected = [hilbert_encode(c, order) for c in coords]
            for backend in BACKENDS:
                assert keys[backend] == expected

    def test_high_order_keys_do_not_overflow(self, rng):
        # order 22 in 3-D needs 66 bits — beyond int64; both backends must
        # agree with the arbitrary-precision scalar encode.
        order = 22
        limit = 1 << order
        coords = [
            (rng.randrange(limit), rng.randrange(limit), rng.randrange(limit))
            for _ in range(20)
        ]
        expected = [hilbert_encode(c, order) for c in coords]
        keys = both_backends(lambda: [int(k) for k in kernels.hilbert_keys(coords, order)])
        for backend in BACKENDS:
            assert keys[backend] == expected

    def test_out_of_range_coords_rejected(self):
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(GeometryError):
                    kernels.hilbert_keys([(0, 0, 1 << 8)], order=8)
                with pytest.raises(GeometryError):
                    kernels.hilbert_keys([(0, 0, -1)], order=8)
                with pytest.raises(GeometryError):
                    kernels.hilbert_keys([(0, 0, 0)], order=0)

    def test_encoder_batch_keys_match_scalar_keys(self, rng):
        world = AABB(-50, -50, -50, 50, 50, 50)
        encoder = HilbertEncoder3D(world, order=8)
        points = [
            Vec3(rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(-60, 60))
            for _ in range(200)
        ]
        batches = both_backends(lambda: encoder.keys_of(points))
        expected = [encoder.key(p) for p in points]
        for backend in BACKENDS:
            assert batches[backend] == expected


class TestXSortedOverlapPairs:
    def test_matches_brute_force_and_is_backend_identical(self, rng):
        side_a = sorted(
            (random_box(rng, extent=10.0) for _ in range(120)), key=lambda b: b.min_x
        )
        side_b = sorted(
            (random_box(rng, extent=10.0) for _ in range(150)), key=lambda b: b.min_x
        )
        for eps in (0.0, 3.0):
            outputs = both_backends(
                lambda: kernels.xsorted_overlap_pairs(
                    kernels.pack_boxes(side_a), kernels.pack_boxes(side_b), eps
                )
            )
            reference = outputs["python"]
            for backend in BACKENDS:
                # identical pair lists (same order), identical tested counts
                assert outputs[backend][0] == reference[0]
                assert outputs[backend][1] == reference[1]
                assert outputs[backend][2] == reference[2]
            found = set(zip(reference[0], reference[1]))
            brute = {
                (i, j)
                for i, a in enumerate(side_a)
                for j, b in enumerate(side_b)
                if a.intersects_expanded(b, eps)
            }
            assert found == brute
            assert len(reference[0]) == len(found), "no pair reported twice"

    def test_empty_sides(self):
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                packed = kernels.pack_boxes([AABB(0, 0, 0, 1, 1, 1)])
                empty = kernels.pack_boxes([])
                assert kernels.xsorted_overlap_pairs(empty, packed) == ([], [], 0)
                assert kernels.xsorted_overlap_pairs(packed, empty) == ([], [], 0)

    def test_no_pair_lost_in_float_rounding_gap(self):
        # Adversarial: b.min_x sits one ulp below fl(a.min_x - eps), so a
        # naive two-sided split on fl(b.min_x + eps) drops the pair on both
        # sides.  The complementary-bound formulation must report it.
        eps = 0.1
        a_min = 0.49288479413527053
        b_min = 0.3928847941352705
        assert b_min < a_min - eps and not (a_min > b_min + eps)
        box_a = AABB(a_min, 0.0, 0.0, a_min + 1.0, 1.0, 1.0)
        box_b = AABB(b_min, 0.0, 0.0, b_min + 1.0, 1.0, 1.0)
        assert box_a.intersects_expanded(box_b, eps)
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                idx_a, idx_b, tested = kernels.xsorted_overlap_pairs(
                    kernels.pack_boxes([box_a]), kernels.pack_boxes([box_b]), eps
                )
                assert (idx_a, idx_b) == ([0], [0]), f"pair dropped on {backend}"
                assert tested == 1

    def test_randomized_ulp_boundaries(self, rng):
        # Many near-boundary pairs: every eps-overlapping pair must appear
        # exactly once whichever backend runs.
        eps = 0.25
        side_a = sorted(
            (random_box(rng, span=1.0, extent=0.5) for _ in range(80)),
            key=lambda b: b.min_x,
        )
        side_b = sorted(
            (random_box(rng, span=1.0, extent=0.5) for _ in range(80)),
            key=lambda b: b.min_x,
        )
        brute = {
            (i, j)
            for i, a in enumerate(side_a)
            for j, b in enumerate(side_b)
            if a.intersects_expanded(b, eps)
        }
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                idx_a, idx_b, _ = kernels.xsorted_overlap_pairs(
                    kernels.pack_boxes(side_a), kernels.pack_boxes(side_b), eps
                )
                assert len(idx_a) == len(brute)
                assert set(zip(idx_a, idx_b)) == brute

    def test_window_expansion_memory_is_bounded(self):
        # Long x-extents put ~750k candidates in the sweep windows: expanded
        # at once, their four index arrays alone would take 24 MB.
        rng = random.Random(3)

        def side(n: int) -> list[AABB]:
            boxes = []
            for _ in range(n):
                x, y, z = rng.uniform(0, 100), rng.uniform(0, 1000), rng.uniform(0, 1000)
                boxes.append(AABB(x, y, z, x + 50.0, y + 1.0, z + 1.0))
            return sorted(boxes, key=lambda b: b.min_x)

        with kernels.use_backend("numpy"):
            packed_a, packed_b = kernels.pack_boxes(side(1000)), kernels.pack_boxes(side(1000))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _a, _b, tested = kernels.xsorted_overlap_pairs(packed_a, packed_b, 0.5)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert tested > 700_000
        assert peak < 4 * 1024 * 1024, f"transient peak {peak / 1024:.0f} KB"


class TestCandidateBatch:
    def test_counts_match_scalar_apply_predicate(self, rng):
        side_a = [random_segment(rng, i) for i in range(60)]
        side_b = [random_segment(rng, 100 + i) for i in range(60)]
        stats = JoinStats(algorithm="test", n_a=60, n_b=60)
        pairs: list[tuple[int, int]] = []
        batch = CandidateBatch(segment_touch_refine, stats, pairs)
        for a, b in zip(side_a, side_b):
            batch.add(a, b)
        batch.flush()
        assert stats.candidates == 60
        expected = [
            (a.uid, b.uid) for a, b in zip(side_a, side_b) if segment_touch_refine(a, b)
        ]
        assert pairs == expected
        assert stats.results == len(expected)

    def test_no_refine_passes_everything(self, rng):
        objects = [BoxObject(i, random_box(rng)) for i in range(10)]
        stats = JoinStats(algorithm="test", n_a=10, n_b=10)
        pairs: list[tuple[int, int]] = []
        batch = CandidateBatch(None, stats, pairs)
        for obj in objects:
            batch.add(obj, obj)
        batch.flush()
        assert len(pairs) == 10
        assert stats.results == 10

    def test_custom_refine_uses_scalar_fallback(self, rng):
        objects = [BoxObject(i, random_box(rng)) for i in range(20)]
        stats = JoinStats(algorithm="test", n_a=20, n_b=20)
        pairs: list[tuple[int, int]] = []
        batch = CandidateBatch(lambda a, b: a.uid % 2 == 0, stats, pairs)
        for obj in objects:
            batch.add(obj, obj)
        batch.flush()
        assert all(ua % 2 == 0 for ua, _ in pairs)
        assert stats.results == 10

    def test_flush_is_idempotent(self):
        stats = JoinStats(algorithm="test", n_a=0, n_b=0)
        batch = CandidateBatch(None, stats, [])
        batch.flush()
        batch.flush()
        assert stats.candidates == 0

    def test_auto_flush_bounds_buffer_and_preserves_order(self, rng):
        side_a = [random_segment(rng, i) for i in range(40)]
        side_b = [random_segment(rng, 100 + i) for i in range(40)]
        reference_stats = JoinStats(algorithm="ref", n_a=40, n_b=40)
        reference_pairs: list[tuple[int, int]] = []
        reference = CandidateBatch(segment_touch_refine, reference_stats, reference_pairs)
        small_stats = JoinStats(algorithm="small", n_a=40, n_b=40)
        small_pairs: list[tuple[int, int]] = []
        small = CandidateBatch(
            segment_touch_refine, small_stats, small_pairs, max_pending=7
        )
        for a, b in zip(side_a, side_b):
            reference.add(a, b)
            small.add(a, b)
            assert len(small) < 7  # the buffer never outgrows its bound
        reference.flush()
        small.flush()
        assert small_pairs == reference_pairs
        assert small_stats.candidates == reference_stats.candidates
        assert small_stats.results == reference_stats.results


class TestConsumerParityAcrossBackends:
    """End-to-end: index and join results identical whichever backend runs."""

    @pytest.fixture
    def objects(self, rng):
        return [BoxObject(uid=i, box=random_box(rng)) for i in range(400)]

    def test_flat_query_and_knn(self, objects, rng):
        queries = [random_box(rng, extent=40.0) for _ in range(5)]
        point = Vec3(5.0, -3.0, 12.0)

        def run():
            index = FLATIndex(objects, page_capacity=32)
            ranges = [sorted(index.query(q).uids) for q in queries]
            knn, _ = index.knn(point, 7)
            return ranges, knn

        outputs = both_backends(run)
        reference = outputs["python"]
        for backend in BACKENDS:
            assert outputs[backend] == reference

    def test_rtree_range_and_knn(self, objects, rng):
        queries = [random_box(rng, extent=40.0) for _ in range(5)]
        point = Vec3(-8.0, 2.0, 4.0)

        def run():
            tree = str_bulk_load([(o.uid, o.aabb) for o in objects], leaf_capacity=48)
            ranges = [sorted(tree.range_query(q)) for q in queries]
            return ranges, tree.knn(point, 9)

        outputs = both_backends(run)
        reference = outputs["python"]
        for backend in BACKENDS:
            assert outputs[backend] == reference

    def test_all_joins_agree_with_nested_loop(self, rng):
        side_a = [random_segment(rng, i) for i in range(120)]
        side_b = [random_segment(rng, 1000 + i) for i in range(120)]

        def run():
            return {
                "touch": touch_join(side_a, side_b, eps=1.0, refine=segment_touch_refine),
                "sweep": plane_sweep_join(side_a, side_b, eps=1.0, refine=segment_touch_refine),
                "pbsm": pbsm_join(side_a, side_b, eps=1.0, refine=segment_touch_refine),
            }

        outputs = both_backends(run)
        expected = nested_loop_join(
            side_a, side_b, eps=1.0, refine=segment_touch_refine
        ).sorted_pairs()
        for backend in BACKENDS:
            for name, result in outputs[backend].items():
                assert result.sorted_pairs() == expected, f"{name} diverged on {backend}"
                assert result.stats.results == len(result.pairs)

    def test_flat_pack_cache_survives_maintenance_and_backend_switch(self, objects, rng):
        index = FLATIndex(objects, page_capacity=32)
        window = random_box(rng, extent=60.0)
        baseline = sorted(index.query(window).uids)
        # Mutate: the per-page packs must be invalidated, not stale.
        newcomer = BoxObject(uid=9999, box=random_box(rng, span=5.0))
        index.insert(newcomer)
        index.delete(objects[0].uid)
        expected = sorted(
            o.uid
            for o in [*objects[1:], newcomer]
            if o.aabb.intersects(window)
        )
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                assert sorted(index.query(window).uids) == expected
        assert baseline != expected or objects[0].uid not in baseline
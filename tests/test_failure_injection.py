"""Failure injection: storage faults, resource pressure, crash damage.

The library must degrade predictably: I/O errors surface as exceptions
without corrupting index state, undersized buffer pools cost latency,
never correctness, and crash-damaged durable state (torn WAL tails,
bit-flipped records, half-written checkpoints) recovers to the last
durable batch instead of raising.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.flat.index import FLATIndex
from repro.core.scout.prefetcher import ScoutPrefetcher
from repro.core.scout.session import ExplorationSession
from repro.engine import KNNQuery, RangeQuery
from repro.errors import EngineError, PageNotFoundError, ServiceError, StorageError
from repro.geometry.aabb import AABB
from repro.service import ShardedEngine
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page
from tests.conftest import grid_boxes


class FlakyDisk(Disk):
    """A disk that fails every read after the first ``budget`` ones."""

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget

    def read(self, page_id: int) -> tuple[Page, float]:
        if self.budget <= 0:
            raise PageNotFoundError(page_id)
        self.budget -= 1
        return super().read(page_id)


def flaky_index(budget: int) -> FLATIndex:
    index = FLATIndex(grid_boxes(4), page_capacity=4)
    flaky = FlakyDisk(budget)
    for pid in index.disk.page_ids():
        flaky.store(index.disk.peek(pid))
    index.disk = flaky
    return index


class TestDiskFaults:
    def test_query_propagates_read_failure(self):
        index = flaky_index(budget=2)
        big = AABB(-10, -10, -10, 50, 50, 50)
        with pytest.raises(PageNotFoundError):
            index.query(big)

    def test_index_survives_failed_query(self):
        index = flaky_index(budget=2)
        big = AABB(-10, -10, -10, 50, 50, 50)
        with pytest.raises(PageNotFoundError):
            index.query(big)
        # Repair the disk and retry: results are exact, state untouched.
        index.disk.budget = 10_000
        result = index.query(big)
        assert sorted(result.uids) == [o.uid for o in grid_boxes(4)]
        index.validate()

    def test_session_propagates_failures_cleanly(self, medium_circuit):
        index = FLATIndex(medium_circuit.segments(), page_capacity=16)
        flaky = FlakyDisk(budget=3)
        for pid in index.disk.page_ids():
            flaky.store(index.disk.peek(pid))
        index.disk = flaky
        pool = BufferPool(index.disk, capacity=64)
        session = ExplorationSession(index, pool, ScoutPrefetcher(index, pool))
        from repro.workloads.walks import branch_walk

        walk = branch_walk(medium_circuit, window_extent=80.0, seed=5)
        with pytest.raises(PageNotFoundError):
            session.run(walk.queries)

    def test_missing_page_error_carries_id(self):
        disk = Disk()
        with pytest.raises(PageNotFoundError) as excinfo:
            disk.read(42)
        assert excinfo.value.page_id == 42
        assert isinstance(excinfo.value, StorageError)


class TestResourcePressure:
    def test_tiny_pool_is_correct_but_slow(self, medium_circuit):
        index = FLATIndex(medium_circuit.segments(), page_capacity=16)
        box = AABB.from_center_extent(medium_circuit.bounding_box().center(), 150.0)
        expected = sorted(index.query(box).uids)

        tiny = BufferPool(index.disk, capacity=1)
        roomy = BufferPool(index.disk, capacity=512)
        tiny_result = index.query(box, pool=tiny)
        roomy_first = index.query(box, pool=roomy)
        roomy_second = index.query(box, pool=roomy)
        assert sorted(tiny_result.uids) == expected
        assert sorted(roomy_second.uids) == expected
        # With one frame every repeat fetch misses; with room it hits.
        repeat_tiny = index.query(box, pool=tiny)
        assert repeat_tiny.stats.stall_time_ms > roomy_second.stats.stall_time_ms
        assert roomy_first.stats.stall_time_ms > roomy_second.stats.stall_time_ms

    def test_pool_thrash_counts_evictions(self, medium_circuit):
        index = FLATIndex(medium_circuit.segments(), page_capacity=16)
        pool = BufferPool(index.disk, capacity=2)
        box = AABB.from_center_extent(medium_circuit.bounding_box().center(), 200.0)
        index.query(box, pool=pool)
        assert pool.stats.evictions > 0
        assert pool.num_resident <= 2

    def test_shard_fault_surfaces_clean_engine_error(self):
        """A shard worker raising mid-query becomes one ServiceError that
        names the shard and chains the original cause."""
        with ShardedEngine.from_objects(grid_boxes(6), num_shards=4) as service:
            victim = service.shards[1].engine
            original = victim.execute

            def exploding(query):
                raise PageNotFoundError(99)

            victim.execute = exploding
            whole = AABB(-10, -10, -10, 50, 50, 50)
            with pytest.raises(ServiceError) as excinfo:
                service.execute(RangeQuery(whole))
            assert isinstance(excinfo.value, EngineError)
            assert excinfo.value.shard_id == 1
            assert isinstance(excinfo.value.__cause__, PageNotFoundError)
            # Repair the shard: the pool and the other shards are unharmed.
            victim.execute = original
            result = service.execute(RangeQuery(whole))
            assert result.payload == [o.uid for o in grid_boxes(6)]
            snap = service.telemetry.snapshot()
            assert snap["failed"] == 1 and snap["completed"] == 1

    def test_shard_fault_leaves_pool_reusable_across_kinds(self):
        """After a mid-query crash the same pool serves every query kind."""
        objects = grid_boxes(5)
        with ShardedEngine.from_objects(objects, num_shards=3) as service:
            victim = service.shards[0].engine
            original = victim.execute
            def crash(query):
                raise RuntimeError("boom")

            victim.execute = crash
            whole = AABB(-10, -10, -10, 50, 50, 50)
            for _ in range(3):  # repeated failures must not wedge admission
                with pytest.raises(ServiceError):
                    service.execute(RangeQuery(whole))
            victim.execute = original
            assert service.execute(RangeQuery(whole)).num_results == len(objects)
            knn = service.execute(KNNQuery(whole.center(), 4))
            assert len(knn.payload) == 4
            admission = service.admission.snapshot()
            assert admission.in_flight == 0 and admission.queued == 0

    def test_durable_state_survives_crash_damage_combinations(self, tmp_path):
        """Torn tail on top of a mid-run checkpoint: recovery lands on the
        last durable batch, anchored to the newest valid checkpoint."""
        from repro.durability import checkpoint_sharded, wal_path
        from tests.test_mutation_oracle import MutationScript

        script = MutationScript(seed=77, n_objects=30)
        root = tmp_path / "d"
        service = repro.create(
            script.initial_objects(), root, sharded=True, num_shards=2, page_capacity=12
        )
        for _ in range(2):
            service.apply_many(script.next_batch(3))
        checkpoint_sharded(root, service)
        service.apply_many(script.next_batch(3))
        durable_uids = sorted(script.model)
        service.apply_many(script.next_batch(3))  # will be torn away
        service.close()
        segment = sorted(wal_path(root).glob("wal-*.seg"))[-1]
        segment.write_bytes(segment.read_bytes()[:-9])
        recovery = repro.open(root, sharded=True, durable=False, page_capacity=12).last_recovery
        assert recovery.wal_truncated
        assert recovery.checkpoint_epoch == 2
        assert recovery.epoch == 3
        assert sorted(o.uid for o in recovery.engine.objects) == durable_uids
        recovery.engine.close()

    def test_bit_flipped_wal_record_recovers_prefix(self, tmp_path):
        """A flipped bit mid-log fails that record's CRC; everything before
        it still replays, nothing after it leaks in, nothing raises."""
        from repro.durability import recover_engine, wal_path
        from tests.test_mutation_oracle import MutationScript

        script = MutationScript(seed=78, n_objects=24)
        root = tmp_path / "d"
        initial = script.initial_objects()
        durable = repro.create(initial, root, page_capacity=12)
        snapshots = [sorted(o.uid for o in initial)]
        for _ in range(4):
            durable.apply_many(script.next_batch(3))
            snapshots.append(sorted(script.model))
        durable.close()
        segment = sorted(wal_path(root).glob("wal-*.seg"))[-1]
        data = bytearray(segment.read_bytes())
        data[len(data) * 3 // 4] ^= 0x01
        segment.write_bytes(bytes(data))
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.wal_truncated
        assert 0 <= recovery.epoch < 4
        assert sorted(o.uid for o in recovery.engine.objects) == snapshots[recovery.epoch]

    def test_half_written_checkpoint_falls_back_to_base(self, tmp_path):
        """tmp dir present, rename missing: the snapshot never happened, so
        recovery anchors to the base checkpoint and replays the full WAL."""
        import shutil

        from repro.durability import checkpoints_path, list_checkpoints, recover_engine
        from tests.test_mutation_oracle import MutationScript

        script = MutationScript(seed=79, n_objects=24)
        root = tmp_path / "d"
        durable = repro.create(script.initial_objects(), root, page_capacity=12)
        for _ in range(3):
            durable.apply_many(script.next_batch(3))
        committed = durable.checkpoint()
        durable.apply_many(script.next_batch(3))
        durable.close()
        # Demote the committed mid-run checkpoint to a half-written one:
        # its data exists under the .tmp name but the rename never landed.
        shutil.move(str(committed), str(committed) + ".tmp")
        epochs = [e for e, _ in list_checkpoints(checkpoints_path(root))]
        assert epochs == [0]
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.checkpoint_epoch == 0  # fell back to the base
        assert recovery.batches_replayed == 4  # full WAL replay
        assert recovery.epoch == 4
        assert sorted(o.uid for o in recovery.engine.objects) == sorted(script.model)

    def test_prefetch_under_pressure_never_breaks_results(self, medium_circuit):
        from repro.workloads.walks import branch_walk

        index = FLATIndex(medium_circuit.segments(), page_capacity=16)
        walk = branch_walk(medium_circuit, window_extent=80.0, seed=5)
        # Pool far smaller than a window's footprint: prefetches evict each
        # other, results must still be exact at every step.
        pool = BufferPool(index.disk, capacity=3)
        session = ExplorationSession(index, pool, ScoutPrefetcher(index, pool))
        metrics = session.run(walk.queries)
        baseline_pool = BufferPool(index.disk, capacity=512)
        baseline = ExplorationSession(
            index, baseline_pool, ScoutPrefetcher(index, baseline_pool)
        ).run(walk.queries)
        assert [s.result_size for s in metrics.steps] == [
            s.result_size for s in baseline.steps
        ]

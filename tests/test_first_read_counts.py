"""Regression lock, by call counts, on the first read after a write batch.

On a warm engine (FLAT, object R-tree and profile built) one 8-mutation
batch followed by one range read must:

* never materialize the live object list (the profile is read from the
  arena's bounds column);
* touch FLAT's seed tree only for page rewrites whose partition MBR
  changed, plus partitions created or dissolved by the batch;
* repair only the index it reads: a range read on the R-tree makes no
  FLAT maintenance call, and the next FLAT read applies each net delta
  of the batches since its last read exactly once;
* convert only the bounds rows appended since the last profile rebuild.

Calls are counted, not timed, so the lock holds on any host.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.flat import updates as flat_updates
from repro.core.flat.index import FLATIndex
from repro.engine import Delete, Insert, Move, RangeQuery, SpatialEngine
from repro.geometry.aabb import AABB
from repro.storage.arena import ColumnarArena
from repro.workloads.traffic import read_write_workload


@pytest.fixture()
def count_live_objects(monkeypatch) -> list:
    calls = []
    original = ColumnarArena.live_objects

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ColumnarArena, "live_objects", counting)
    return calls


def write_batches(objects, count: int = 4):
    world = AABB.union_all(o.aabb for o in objects)
    stream = read_write_workload(
        objects,
        400,
        write_fraction=0.5,
        extent=60.0,
        object_extent=max(world.sizes) * 0.01,
        seed=121,
    )
    writes = [op for op in stream if isinstance(op, (Insert, Delete, Move))]
    return [writes[i : i + 8] for i in range(0, 8 * count, 8)], world


def warm(engine: SpatialEngine, world: AABB) -> None:
    engine.execute(RangeQuery(world, strategy="flat"))
    engine.execute(RangeQuery(world, strategy="rtree"))
    _ = engine.profile


def test_first_read_after_a_batch_materializes_no_objects(small_circuit, count_live_objects):
    engine = SpatialEngine(small_circuit.segments(), circuit=small_circuit)
    batches, world = write_batches(engine.objects)
    warm(engine, world)
    window = RangeQuery(AABB.from_center_extent(world.center(), 60.0))
    for batch in batches:
        engine.apply_many(batch)
        count_live_objects.clear()
        engine.execute(window)
        engine.execute(RangeQuery(window.box, strategy="rtree"))
        assert count_live_objects == []


def test_sharded_planner_profile_materializes_no_objects(small_circuit, count_live_objects):
    service = repro.create(small_circuit.segments(), sharded=True, num_shards=2)
    with service:
        batches, world = write_batches(small_circuit.segments(), count=1)
        service.apply_many(batches[0])
        count_live_objects.clear()
        assert service.profile.n_objects == service.num_objects
        assert count_live_objects == []


def test_seed_tree_is_touched_only_when_a_page_mbr_changes(small_circuit, monkeypatch):
    engine = SpatialEngine(small_circuit.segments(), circuit=small_circuit)
    batches, world = write_batches(engine.objects, count=6)
    warm(engine, world)
    flat = engine.flat_index()
    seed_calls = {"delete": 0, "insert": 0}
    for name in seed_calls:
        original = getattr(flat.seed_tree, name)

        def counting(*args, _name=name, _original=original):
            seed_calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(flat.seed_tree, name, counting)

    rewrites = {"changed": 0, "unchanged": 0, "created": 0, "dissolved": 0}
    replace = flat_updates._replace_partition
    create = flat_updates._create_partition
    dissolve = flat_updates._dissolve_partition

    def counting_replace(index, pid, uids, bounds):
        before = index.partitions[pid].mbr
        replace(index, pid, uids, bounds)
        rewrites["unchanged" if index.partitions[pid].mbr == before else "changed"] += 1

    def counting_create(index, uids, mbr):
        rewrites["created"] += 1
        create(index, uids, mbr)

    def counting_dissolve(index, pid):
        rewrites["dissolved"] += 1
        dissolve(index, pid)

    monkeypatch.setattr(flat_updates, "_replace_partition", counting_replace)
    monkeypatch.setattr(flat_updates, "_create_partition", counting_create)
    monkeypatch.setattr(flat_updates, "_dissolve_partition", counting_dissolve)

    window = RangeQuery(AABB.from_center_extent(world.center(), 60.0), strategy="flat")
    for batch in batches:
        engine.apply_many(batch)
        engine.execute(window)
    assert seed_calls["delete"] == rewrites["changed"] + rewrites["dissolved"]
    assert seed_calls["insert"] == rewrites["changed"] + rewrites["created"]
    # The lock means something only if some rewrites kept their MBR.
    assert rewrites["unchanged"] > 0
    flat.validate()


def touched_uids(batch) -> set[int]:
    return {m.uid if isinstance(m, Delete) else m.obj.uid for m in batch}


def net_calls(before: set[int], after: set[int], touched: set[int]) -> list[tuple[int, str]]:
    """The one FLAT call each touched uid needs, from the live sets around it."""
    calls = []
    for uid in touched:
        if uid in before and uid in after:
            calls.append((uid, "move"))
        elif uid in after:
            calls.append((uid, "insert"))
        elif uid in before:
            calls.append((uid, "delete"))
    return sorted(calls)


def test_a_range_read_repairs_only_the_rtree(small_circuit, monkeypatch):
    engine = SpatialEngine(small_circuit.segments(), circuit=small_circuit)
    batches, world = write_batches(engine.objects, count=3)
    warm(engine, world)
    maintenance = []
    for name in ("insert_object", "delete_object", "move_object"):
        original = getattr(flat_updates, name)

        def counting(index, arg, _name=name, _original=original):
            maintenance.append(_name)
            return _original(index, arg)

        monkeypatch.setattr(flat_updates, name, counting)
    index_calls = []
    for name in ("insert", "delete", "move"):
        original = getattr(FLATIndex, name)

        def counting_method(self, arg, _name=name, _original=original):
            index_calls.append((arg if isinstance(arg, int) else arg.uid, _name))
            return _original(self, arg)

        monkeypatch.setattr(FLATIndex, name, counting_method)

    window = RangeQuery(AABB.from_center_extent(world.center(), 60.0), strategy="rtree")
    before = set(engine.arena.live_uids())
    touched: set[int] = set()
    for batch in batches:
        # The R-tree is read after every batch; FLAT lags all three.
        engine.apply_many(batch)
        touched |= touched_uids(batch)
        engine.execute(window)
        assert maintenance == [] and index_calls == []
    expected = net_calls(before, set(engine.arena.live_uids()), touched)
    flat = engine.flat_index()
    assert sorted(index_calls) == expected
    assert maintenance
    engine.flat_index()  # the queue is empty now: no second application
    assert sorted(index_calls) == expected
    flat.validate()


class CountingSlices(list):
    """A bounds column that logs the length of every slice read from it."""

    def __init__(self, rows, log: list[int]) -> None:
        super().__init__(rows)
        self.log = log

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            self.log.append(len(got))
        return got


def test_a_profile_rebuild_converts_only_the_appended_rows(small_circuit):
    engine = SpatialEngine(small_circuit.segments(), circuit=small_circuit)
    batches, world = write_batches(engine.objects, count=3)
    warm(engine, world)
    converted: list[int] = []
    arena = engine.arena
    arena.bounds = CountingSlices(arena.bounds, converted)
    for batch in batches:
        rows = len(arena.bounds)
        engine.apply_many(batch)
        appended = len(arena.bounds) - rows
        converted.clear()
        _ = engine.profile
        assert converted == ([appended] if appended else [])
    assert isinstance(arena.bounds, CountingSlices)  # no compaction dropped the array

"""The first read after a write is exact: deferred index deltas, the
column-built profile and the lean R-tree maintenance change no answer, no
plan and no tree layout.

* a hypothesis property drives seeded Insert/Delete/Move batches through
  an engine whose FLAT index, object R-tree and profile are all built, and
  after every batch checks the index invariants, range/kNN answers against
  a fresh engine over the arena's live objects, and ``explain()`` against
  plans from a profile built the brute-force way (a Python loop over the
  objects) inside this test;
* a reference R-tree with Guttman's full-refresh insert/condense (every
  level's slot and column recomputed) and an exhaustive delete search
  must keep the same layout, node for node, as :class:`RTree` under the
  same Insert/Delete/Move batches (checked after every mutation), and
  every column :class:`RTree` edits slot by slot, and every kernel pack a
  node keeps, must equal one rebuilt whole;
* a profile patched batch after batch is byte for byte a fresh one,
  x-sorted arrays included, as the live count crosses a multiple of the
  sample size, with and without tied x values;
* with FLAT several batches behind the R-tree (only R-tree reads between
  batches, one uid deleted then reinserted and another inserted then
  moved across them), the lagged FLAT flush answers range, kNN and walk
  reads as a fresh engine does;
* a delta flush that raises part way drops every index, and the next read
  rebuilds and answers exactly;
* the WAL scan decodes one batch per ``suffix()`` step.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.flat.index import FLATIndex
from repro.core.flat.updates import validate_index
from repro.durability import wal as wal_module
from repro.durability.wal import WriteAheadLog, read_wal
from repro.engine import (
    Delete,
    Insert,
    KNNQuery,
    Move,
    RangeQuery,
    SpatialEngine,
    Walkthrough,
)
from repro.engine.planner import _PROFILE_SAMPLE, DatasetProfile, Planner
from repro.errors import WalCorruptionError
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.objects import BoxObject
from repro.rtree.bulk import str_bulk_load
from repro.rtree.node import Entry, bounds_column
from repro.rtree.tree import RTree
from repro.utils.rng import make_rng

WORLD = 40.0
PAGE = 8


def box_at(uid: int, x: float, y: float, z: float, size: float = 1.5) -> BoxObject:
    return BoxObject(uid=uid, box=AABB(x, y, z, x + size, y + size, z + size))


def base_objects(n: int = 160, seed: int = 11) -> list[BoxObject]:
    rng = make_rng(seed)
    return [box_at(uid, *(float(v) for v in rng.uniform(0, WORLD, 3))) for uid in range(n)]


QUERIES = [
    RangeQuery(AABB(0.0, 0.0, 0.0, 12.0, 12.0, 12.0)),
    RangeQuery(AABB(10.0, 5.0, 20.0, 30.0, 25.0, 38.0)),
    RangeQuery(AABB(19.0, 19.0, 19.0, 21.0, 21.0, 21.0)),
    RangeQuery(AABB(-5.0, -5.0, -5.0, 50.0, 50.0, 50.0)),
    KNNQuery(Vec3(20.0, 20.0, 20.0), k=5),
    KNNQuery(Vec3(0.0, 40.0, 3.0), k=12),
]


def brute_force_profile(objects, page_capacity: int) -> DatasetProfile:
    """The profile as a Python loop over objects computes it."""
    stride = max(1, -(-len(objects) // _PROFILE_SAMPLE))
    sample = np.array(
        [
            [
                (o.aabb.min_x + o.aabb.max_x) / 2.0,
                (o.aabb.min_y + o.aabb.max_y) / 2.0,
                (o.aabb.min_z + o.aabb.max_z) / 2.0,
            ]
            for o in objects[::stride]
        ]
    )
    return DatasetProfile(len(objects), page_capacity, sample)


def warm_engine(objects) -> SpatialEngine:
    engine = SpatialEngine(objects, page_capacity=PAGE, seed_fanout=4)
    engine.flat_index()
    engine.object_rtree()
    _ = engine.profile
    return engine


def answers(engine: SpatialEngine, strategy: str) -> list:
    out = []
    for query in QUERIES:
        payload = engine.execute(replace(query, strategy=strategy)).payload
        out.append(sorted(payload) if isinstance(query, RangeQuery) else payload)
    return out


# (kind, pick, x, y, z): pick selects a live uid for Delete/Move.
ops = st.tuples(
    st.sampled_from(["insert", "delete", "move", "nudge"]),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-2.0, max_value=WORLD + 2.0),
    st.floats(min_value=-2.0, max_value=WORLD + 2.0),
    st.floats(min_value=-2.0, max_value=WORLD + 2.0),
)
batches = st.lists(st.lists(ops, min_size=1, max_size=8), min_size=1, max_size=5)


def to_mutations(engine: SpatialEngine, batch, next_uid: list[int]) -> list:
    live = engine.arena.live_uids()
    gone: set[int] = set()
    mutations = []
    for kind, pick, x, y, z in batch:
        candidates = [uid for uid in live if uid not in gone]
        uid = candidates[pick % len(candidates)]
        if kind == "insert":
            mutations.append(Insert(box_at(next_uid[0], x, y, z)))
            next_uid[0] += 1
        elif kind == "delete":
            mutations.append(Delete(uid))
            gone.add(uid)
        elif kind == "move":
            mutations.append(Move(uid, box_at(uid, x, y, z)))
        else:
            # A small move: usually stays inside its FLAT page's MBR.
            box = engine.arena.aabb_of(uid)
            shifted = box_at(uid, box.min_x + 0.01, box.min_y, box.min_z, size=1.4)
            mutations.append(Move(uid, shifted))
    return mutations


@settings(max_examples=25)
@given(batches)
def test_first_reads_match_a_fresh_engine(batch_list):
    engine = warm_engine(base_objects())
    next_uid = [10_000]
    for batch in batch_list:
        engine.apply_many(to_mutations(engine, batch, next_uid))
        live = engine.arena.live_objects()
        fresh = SpatialEngine(live, page_capacity=PAGE, seed_fanout=4)
        reference = Planner(brute_force_profile(live, PAGE))
        # Plans first: explain() must not depend on which index is synced.
        assert [engine.explain(q) for q in QUERIES] == [reference.plan(q) for q in QUERIES]
        for strategy in ("flat", "rtree"):
            assert answers(engine, strategy) == answers(fresh, strategy)
        validate_index(engine.flat_index())
        engine.object_rtree().validate()
        assert engine.indexes_built["flat"] and engine.indexes_built["rtree"]


WALK = Walkthrough(
    tuple(AABB(x, 10.0, 10.0, x + 8.0, 18.0, 18.0) for x in (0.0, 5.0, 10.0, 15.0, 20.0)),
    strategy="scout",
)

# One uid deleted then reinserted and another inserted then moved, each
# across batches that FLAT sees only as one lagged flush.
SCRIPTED = [
    [Delete(5), Move(6, box_at(6, 2.0, 2.0, 2.0))],
    [Insert(box_at(5, 30.0, 30.0, 30.0)), Insert(box_at(9_000, 1.0, 1.0, 1.0))],
    [Move(9_000, box_at(9_000, 35.0, 2.0, 2.0)), Delete(6)],
]


@settings(max_examples=15)
@given(batches)
def test_a_lagging_flat_catches_up_exactly(batch_list):
    engine = warm_engine(base_objects())
    next_uid = [10_000]
    rtree_window = RangeQuery(AABB(5.0, 5.0, 5.0, 30.0, 30.0, 30.0), strategy="rtree")
    scripted_then_drawn = itertools.chain(
        SCRIPTED, (to_mutations(engine, b, next_uid) for b in batch_list)
    )
    for batch in scripted_then_drawn:
        engine.apply_many(batch)
        # Only the R-tree is read between batches; FLAT falls behind.
        live = engine.arena.live_objects()
        expected = sorted(o.uid for o in live if o.aabb.intersects(rtree_window.box))
        assert sorted(engine.execute(rtree_window).payload) == expected
    fresh = SpatialEngine(engine.arena.live_objects(), page_capacity=PAGE, seed_fanout=4)
    assert answers(engine, "flat") == answers(fresh, "flat")
    walked, reference = engine.execute(WALK).payload, fresh.execute(WALK).payload
    assert [s.result_size for s in walked.steps] == [s.result_size for s in reference.steps]
    validate_index(engine.flat_index())
    engine.object_rtree().validate()


def test_profile_from_arena_is_bit_identical_to_the_object_loop(medium_circuit):
    segments = medium_circuit.segments()
    expected = brute_force_profile(segments, 48)
    for cut in (0, 1, 777, len(segments) // 2, len(segments) - 1):
        engine_a = SpatialEngine(segments[:cut]) if cut else None
        engine_b = SpatialEngine(segments[cut:])
        arenas = [e.arena for e in (engine_a, engine_b) if e is not None]
        profile = DatasetProfile.from_arena(arenas, 48)
        assert profile.n_objects == len(segments)
        assert profile.sample.tobytes() == expected.sample.tobytes()
        assert profile.world == AABB.union_all(o.aabb for o in segments)


def grid_box(uid: int, x: int, y: int, z: int, ties: bool = True) -> BoxObject:
    """A box on a coarse grid, where many objects share a centre's x (sort
    ties), or nudged along x by its uid, where none do."""
    return box_at(uid, 2.0 * x + (0.0 if ties else uid * 1e-4), 2.0 * y, 2.0 * z, size=1.0)


# (kind, pick, x, y, z) on the grid; pick selects a live uid.
grid_ops = st.tuples(
    st.sampled_from(["insert", "delete", "move"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=19),
    st.integers(min_value=0, max_value=19),
    st.integers(min_value=0, max_value=19),
)


def reference_x_sorted(sample: np.ndarray) -> tuple[bytes, bytes]:
    by_x = sample[np.argsort(sample[:, 0], kind="stable")]
    return by_x[:, 0].tobytes(), by_x[:, 1:].tobytes()


@settings(max_examples=25)
@given(
    st.sampled_from([_PROFILE_SAMPLE - 5, _PROFILE_SAMPLE, _PROFILE_SAMPLE + 3]),
    st.lists(st.lists(grid_ops, min_size=1, max_size=8), min_size=1, max_size=6),
    st.booleans(),
)
def test_the_patched_profile_equals_a_fresh_one(start, batch_list, ties):
    """Each batch's profile (patched from the last) is byte for byte the
    profile a fresh ``from_arena`` builds, sample and x-sorted arrays, as
    the live count crosses a multiple of the sample size both ways."""
    rng = make_rng(start)
    engine = SpatialEngine(
        [grid_box(uid, *(int(v) for v in rng.integers(0, 20, 3)), ties) for uid in range(start)],
        page_capacity=PAGE,
    )
    next_uid = start
    for batch in batch_list:
        _ = engine.profile
        live = engine.arena.live_uids()
        gone: set[int] = set()
        mutations = []
        for kind, pick, x, y, z in batch:
            uid = [u for u in live if u not in gone][pick % (len(live) - len(gone))]
            if kind == "insert":
                mutations.append(Insert(grid_box(next_uid, x, y, z, ties)))
                next_uid += 1
            elif kind == "delete":
                mutations.append(Delete(uid))
                gone.add(uid)
            else:
                mutations.append(Move(uid, grid_box(uid, x, y, z, ties)))
        engine.apply_many(mutations)
        fresh = DatasetProfile.from_arena(engine.arena, PAGE)
        profile = engine.profile
        assert profile.n_objects == fresh.n_objects == engine.num_objects
        assert profile.sample.shape == fresh.sample.shape
        assert profile.sample.tobytes() == fresh.sample.tobytes()
        xs, yz = profile._x_sorted()
        assert (xs.tobytes(), yz.tobytes()) == reference_x_sorted(fresh.sample)


# -- R-tree layouts -------------------------------------------------------------
def refresh_bounds(node) -> None:
    node.bounds = bounds_column(e.mbr.bounds() for e in node.entries)
    node._pack = None


class FullRefreshRTree(RTree):
    """Guttman's insert/condense, recomputing every level on the path and
    rebuilding each touched node's whole column; delete searches every
    subtree whose box intersects the entry's."""

    def _insert_entry(self, entry: Entry, level: int) -> None:
        overflow = self._full_insert(self.root, entry, level)
        if overflow is not None:
            old_root = self.root
            self.root = self._new_node(
                level=old_root.level + 1,
                entries=[
                    Entry(mbr=AABB.union_all(e.mbr for e in old_root.entries), child=old_root),
                    Entry(mbr=AABB.union_all(e.mbr for e in overflow.entries), child=overflow),
                ],
            )

    def _full_insert(self, node, entry, level):
        if node.level == level:
            node.entries.append(entry)
        else:
            best, best_key = None, None
            for slot in node.entries:
                key = (
                    slot.mbr.enlargement(entry.mbr),
                    slot.mbr.volume(),
                    len(slot.child.entries),
                )
                if best_key is None or key < best_key:
                    best, best_key = slot, key
            overflow = self._full_insert(best.child, entry, level)
            best.mbr = AABB.union_all(e.mbr for e in best.child.entries)
            if overflow is not None:
                node.entries.append(
                    Entry(mbr=AABB.union_all(e.mbr for e in overflow.entries), child=overflow)
                )
        refresh_bounds(node)
        if len(node.entries) > self._capacity_of(node):
            return self._split_node(node)
        return None

    def delete(self, uid, mbr=None) -> None:
        path = self._intersecting_path(self.root, uid, mbr)
        leaf = path[-1]
        leaf.entries = [e for e in leaf.entries if e.uid != uid]
        refresh_bounds(leaf)
        self._size -= 1
        self._full_condense(path)

    def _intersecting_path(self, node, uid, mbr):
        if node.is_leaf:
            return [node] if any(e.uid == uid for e in node.entries) else None
        for slot in node.entries:
            if mbr is None or slot.mbr.intersects(mbr):
                sub = self._intersecting_path(slot.child, uid, mbr)
                if sub is not None:
                    return [node, *sub]
        return None

    def _full_condense(self, path) -> None:
        orphans = []
        for i in range(len(path) - 1, 0, -1):
            node, parent = path[i], path[i - 1]
            slot = next(s for s in parent.entries if s.child is node)
            if len(node.entries) < self._min_fill_of(node):
                parent.entries.remove(slot)
                orphans.extend(self._collect_leaf_entries(node))
            else:
                slot.mbr = AABB.union_all(e.mbr for e in node.entries)
            refresh_bounds(parent)
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
        if not self.root.is_leaf and not self.root.entries:
            self.root = self._new_node(level=0)
        for orphan in orphans:
            self._insert_entry(orphan, level=0)


def layout(tree: RTree) -> list:
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        out.append((node.level, [(e.uid, e.mbr.bounds()) for e in node.entries]))
        stack.extend(e.child for e in reversed(node.entries) if e.child is not None)
    return out


def assert_columns_and_packs_rebuild_whole(tree: RTree) -> None:
    """Every node's column, and its pack if it has one, equal ones rebuilt
    from its entries; a pack kept since the last read is the active
    backend's."""
    for node in tree.iter_nodes():
        rebuilt = bounds_column(e.mbr.bounds() for e in node.entries)
        assert node.bounds.dtype == np.float64 and node.bounds.shape == rebuilt.shape
        assert node.bounds.tobytes() == rebuilt.tobytes()
        if node._pack is not None:
            token, pack = node._pack
            assert token == kernels.pack_token()
            expected = kernels.pack_bounds(rebuilt)
            if isinstance(expected, np.ndarray):
                assert pack.tobytes() == expected.tobytes()
            else:
                assert pack == expected


def random_box(rng) -> AABB:
    return box_at(0, *(float(v) for v in rng.uniform(0, WORLD, 3))).box


def run_batches(rng, boxes: dict, lean: RTree, full: RTree, batches: int) -> None:
    """Seeded Insert/Delete/Move batches of 1-8 mutations on both trees,
    layouts compared after every mutation, with a full-window read of
    ``lean`` after each batch (so the next batch edits packed nodes)."""
    next_uid = 1000
    everything = AABB(-1.0, -1.0, -1.0, WORLD + 2, WORLD + 2, WORLD + 2)
    for batch in range(batches):
        for step in range(int(rng.integers(1, 9))):
            roll = rng.uniform()
            uids = sorted(boxes)
            uid = uids[int(rng.integers(len(uids)))]
            if roll < 0.35:  # Delete
                for tree in (lean, full):
                    tree.delete(uid, boxes[uid])
                del boxes[uid]
            else:
                if roll < 0.7:  # Insert
                    uid, next_uid = next_uid, next_uid + 1
                else:  # Move: delete, then insert the new box
                    for tree in (lean, full):
                        tree.delete(uid, boxes[uid])
                boxes[uid] = random_box(rng)
                for tree in (lean, full):
                    tree.insert(uid, boxes[uid])
            assert layout(lean) == layout(full), f"layouts diverge at batch {batch}, step {step}"
        assert_columns_and_packs_rebuild_whole(lean)
        assert sorted(lean.range_query(everything)) == sorted(boxes)


@pytest.mark.parametrize("bulk", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rtree_layout_matches_full_refresh_maintenance(bulk, seed):
    rng = make_rng(seed)
    boxes = {uid: random_box(rng) for uid in range(500)}
    if bulk:
        # STR leaves trailing underfull nodes; a condense pass must still
        # dissolve every one on its path, above an unchanged level too.
        items = list(boxes.items())
        lean = str_bulk_load(items, max_entries=5)
        full = str_bulk_load(items, max_entries=5)
        full.__class__ = FullRefreshRTree
    else:
        lean, full = RTree(max_entries=5), FullRefreshRTree(max_entries=5)
        for uid, box in boxes.items():
            lean.insert(uid, box)
            full.insert(uid, box)
    assert_columns_and_packs_rebuild_whole(lean)
    lean.range_query(AABB(0.0, 0.0, 0.0, WORLD, WORLD, WORLD))  # pack every node
    run_batches(rng, boxes, lean, full, batches=80)
    lean.validate()


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_rtree_packs_follow_edits_under_every_backend(backend):
    rng = make_rng(7)
    boxes = {uid: random_box(rng) for uid in range(300)}
    items = list(boxes.items())
    lean = str_bulk_load(items, max_entries=4, leaf_capacity=9)
    full = str_bulk_load(items, max_entries=4, leaf_capacity=9)
    full.__class__ = FullRefreshRTree
    with kernels.use_backend(backend):
        lean.range_query(AABB(0.0, 0.0, 0.0, WORLD, WORLD, WORLD))
        run_batches(rng, boxes, lean, full, batches=40)
    lean.validate()


# -- all-or-nothing delta flush --------------------------------------------------
def test_a_failing_delta_flush_drops_the_indexes_and_the_next_read_rebuilds(monkeypatch):
    objects = base_objects()
    engine = warm_engine(objects)
    window = RangeQuery(AABB(0.0, 0.0, 0.0, 25.0, 25.0, 25.0))
    batch = [Insert(box_at(5000 + i, 3.0 * i, 2.0, 2.0)) for i in range(6)]
    batch += [Delete(7), Move(9, box_at(9, 30.0, 30.0, 30.0))]
    engine.apply_many(batch)

    original = FLATIndex.insert
    calls = []

    def insert_failing_once(self, obj):
        calls.append(obj.uid)
        if len(calls) == 3:
            raise RuntimeError("injected FLAT insert failure")
        return original(self, obj)

    monkeypatch.setattr(FLATIndex, "insert", insert_failing_once)
    with pytest.raises(RuntimeError, match="injected"):
        engine.execute(window)
    assert engine.indexes_built == {"flat": False, "rtree": False, "pool": False}

    live = engine.arena.live_objects()
    expected = sorted(o.uid for o in live if o.aabb.intersects(window.box))
    fresh = SpatialEngine(live, page_capacity=PAGE, seed_fanout=4)
    for strategy in ("flat", "rtree"):
        query = RangeQuery(window.box, strategy=strategy)
        assert sorted(engine.execute(query).payload) == expected
        knn = KNNQuery(Vec3(10.0, 10.0, 10.0), k=7, strategy=strategy)
        assert engine.execute(knn).payload == fresh.execute(knn).payload
    validate_index(engine.flat_index())
    engine.object_rtree().validate()


# -- streaming WAL replay --------------------------------------------------------
def test_wal_suffix_decodes_one_batch_per_step(tmp_path, monkeypatch):
    batches = [[Insert(box_at(100 + i, float(i), 0.0, 0.0))] for i in range(6)]
    with WriteAheadLog(tmp_path / "wal") as wal:
        for batch in batches:
            wal.append(batch)
    decoded = []
    original = wal_module.decode_batch

    def counting(payload):
        decoded.append(payload)
        return original(payload)

    monkeypatch.setattr(wal_module, "decode_batch", counting)
    scan = read_wal(tmp_path / "wal", anchor_seq=2)
    assert decoded == []  # the scan verifies, it does not decode
    stream = scan.suffix(2)
    for step, (seq, batch) in enumerate(stream, start=1):
        assert len(decoded) == step
        assert batch == batches[seq - 1]
    assert len(decoded) == 4


def test_a_crc_valid_undecodable_record_raises_on_replay(tmp_path):
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append([Insert(box_at(1, 0.0, 0.0, 0.0))])
    segment = next((tmp_path / "wal").glob("wal-*.seg"))
    payload = json.dumps({"not": "a batch"}).encode("utf-8")
    seq = wal_module._SEQ.pack(2)
    header = wal_module._RECORD_HEADER.pack(len(payload), zlib.crc32(seq + payload))
    with segment.open("ab") as handle:
        handle.write(header + seq + payload)
    scan = read_wal(tmp_path / "wal")
    assert scan.last_seq == 2 and not scan.truncated
    stream = scan.suffix(0)
    assert next(stream)[0] == 1
    with pytest.raises(WalCorruptionError, match="seq 2"):
        next(stream)

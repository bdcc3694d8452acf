"""Dataset catalog tests (:mod:`repro.catalog`).

Covers the manifest (CRC, atomic rewrite, tombstone-safe updates), tags
across process restarts, lineage reconstruction, uid-level diff,
cross-dataset joins (vs a brute-force oracle, byte-identical across the
single-engine / thread / process executors and both kernel backends),
tag-aware prune after compaction, mixed-format checkpoint dirs opened
through the catalog, the ``at_epoch``-on-a-sharded-root escape-hatch
messages, and the CLI error paths.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro
from repro import kernels
from repro.catalog import Catalog, CatalogError, CatalogManifest, dataset_lineage
from repro.cli import main as cli_main
from repro.durability import (
    checkpoints_path,
    list_checkpoints,
    wal_path,
    write_checkpoint,
)
from repro.engine import Insert, KNNQuery, Move, RangeQuery, SpatialJoin, Walkthrough
from repro.geometry.aabb import AABB
from repro.objects import BoxObject
from repro.storage.arena import ColumnarArena

BACKENDS = kernels.available_backends()


def boxes(n: int, offset: float = 0.0, first_uid: int = 1) -> list[BoxObject]:
    """n unit boxes on a line, 2 apart — distance structure is obvious."""
    return [
        BoxObject(
            uid=first_uid + i,
            box=AABB(i * 2.0 + offset, 0.0, 0.0, i * 2.0 + offset + 1.0, 1.0, 1.0),
        )
        for i in range(n)
    ]


def moved_box(uid: int, x: float) -> BoxObject:
    return BoxObject(uid=uid, box=AABB(x, 0.0, 0.0, x + 1.0, 1.0, 1.0))


def brute_join(side_a, side_b, eps: float) -> list[tuple[int, int]]:
    return sorted(
        (a.uid, b.uid)
        for a in side_a
        for b in side_b
        if a.aabb.min_distance_to_box(b.aabb) <= eps
    )


@pytest.fixture
def catalog(tmp_path):
    return Catalog(tmp_path / "cat")


# -- manifest ------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        manifest = CatalogManifest()
        manifest.add_dataset("circuit")
        manifest.set_tag("circuit", "v1", 3)
        manifest.store(path)
        loaded = CatalogManifest.load(path)
        assert loaded.tag_epoch("circuit", "v1") == 3

    def test_missing_file_is_empty(self, tmp_path):
        assert CatalogManifest.load(tmp_path / "none.json").datasets == {}

    def test_crc_corruption_detected(self, tmp_path):
        path = tmp_path / "catalog.json"
        manifest = CatalogManifest()
        manifest.add_dataset("circuit")
        manifest.store(path)
        record = json.loads(path.read_text())
        record["payload"]["datasets"]["ghost"] = {"tags": {}, "tombstones": {}}
        path.write_text(json.dumps(record))
        with pytest.raises(CatalogError, match="CRC"):
            CatalogManifest.load(path)

    def test_bad_names_rejected(self):
        manifest = CatalogManifest()
        for bad in ("", ".hidden", "a/b", "a b", "x" * 65, "-lead"):
            with pytest.raises(CatalogError, match="invalid dataset name"):
                manifest.add_dataset(bad)

    def test_untag_leaves_tombstone_and_blocks_resolution(self, catalog):
        catalog.create("circuit", boxes(4)).close()
        catalog.tag("circuit", "v1")
        catalog.untag("circuit", "v1")
        with pytest.raises(CatalogError, match="was deleted at revision"):
            catalog.resolve("circuit@v1")

    def test_stale_instance_cannot_resurrect_a_deleted_tag(self, tmp_path):
        root = tmp_path / "cat"
        stale = Catalog(root)
        stale.create("circuit", boxes(4)).close()
        stale.tag("circuit", "v1")
        # A second handle deletes the tag; the stale handle then performs
        # an unrelated write.  Read-modify-write from disk means the
        # tombstone survives the stale handle's update.
        Catalog(root).untag("circuit", "v1")
        stale.tag("circuit", "v2")
        with pytest.raises(CatalogError, match="was deleted"):
            Catalog(root).resolve("circuit@v1")
        assert Catalog(root).resolve("circuit@v2").epoch == 0

    def test_explicit_retag_clears_the_tombstone(self, catalog):
        catalog.create("circuit", boxes(4)).close()
        catalog.tag("circuit", "v1")
        catalog.untag("circuit", "v1")
        catalog.tag("circuit", "v1")
        assert catalog.resolve("circuit@v1").epoch == 0

    def test_repointing_a_live_tag_refused(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        catalog.tag("circuit", "v1")
        engine.apply_many([Move(uid=1, obj=moved_box(1, 40.0))])
        engine.close()
        with pytest.raises(CatalogError, match="untag it first"):
            catalog.tag("circuit", "v1", epoch=1)


# -- tags and datasets ---------------------------------------------------------
class TestTags:
    def test_tags_survive_process_restart(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        engine = catalog.create("circuit", boxes(6))
        catalog.tag("circuit", "v1")
        engine.apply_many([Move(uid=2, obj=moved_box(2, 30.0))])
        engine.checkpoint()
        catalog.tag("circuit", "v2")
        engine.close()
        # A fresh Catalog over the same directory is "the restart".
        reopened = Catalog(root)
        assert reopened.tags("circuit") == {"v1": 0, "v2": 1}
        assert len(reopened.open("circuit@v1").objects) == 6

    def test_tag_defaults_to_the_durable_tip(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        engine.apply_many([Insert(moved_box(50, 90.0))])
        engine.close()
        assert catalog.tag("circuit", "tip") == 1

    def test_unreachable_epoch_refused_at_tag_time(self, catalog):
        catalog.create("circuit", boxes(4)).close()
        with pytest.raises(CatalogError, match="reachable epochs"):
            catalog.tag("circuit", "future", epoch=7)

    def test_unknown_names_list_alternatives(self, catalog):
        catalog.create("circuit", boxes(4)).close()
        with pytest.raises(CatalogError, match="catalog holds: circuit"):
            catalog.dataset_root("atlas")
        with pytest.raises(CatalogError, match="unknown tag"):
            catalog.resolve("circuit@nope")

    def test_duplicate_dataset_refused(self, catalog):
        catalog.create("circuit", boxes(4)).close()
        with pytest.raises(CatalogError, match="already"):
            catalog.create("circuit", boxes(4))

    def test_failed_create_leaves_no_entry(self, catalog):
        with pytest.raises(Exception):
            catalog.create("empty", [])
        assert catalog.names() == []

    def test_tagged_open_is_read_only(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        catalog.tag("circuit", "v1")
        engine.apply_many([Move(uid=1, obj=moved_box(1, 40.0))])
        engine.close()
        with pytest.raises(CatalogError, match="read-only"):
            catalog.open("circuit@v1", durable=True)
        ro = catalog.open("circuit@v1")
        assert ro.last_recovery.epoch == 0


# -- lineage -------------------------------------------------------------------
class TestLineage:
    def test_records_match_the_applied_batches(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        engine.apply_many([Insert(moved_box(100, 90.0)), Insert(moved_box(101, 93.0))])
        engine.apply_many([Move(uid=100, obj=moved_box(100, 96.0))])
        engine.close()
        records = catalog.lineage("circuit")
        assert [r.epoch for r in records] == [0, 1, 2]
        assert records[0].source == "checkpoint"
        assert (records[1].inserts, records[1].uids) == (2, (100, 101))
        assert (records[2].moves, records[2].uids) == (1, (100,))

    def test_at_epoch_truncates(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        engine.apply_many([Insert(moved_box(100, 90.0))])
        engine.apply_many([Insert(moved_box(101, 93.0))])
        engine.close()
        assert catalog.lineage("circuit", at_epoch=1)[-1].epoch == 1
        with pytest.raises(CatalogError, match="unreachable"):
            catalog.lineage("circuit", at_epoch=9)

    def test_lineage_is_derived_not_stored(self, catalog):
        engine = catalog.create("circuit", boxes(4))
        engine.apply_many([Insert(moved_box(100, 90.0))])
        engine.close()
        manifest = json.loads((catalog.root / "catalog.json").read_text())
        assert "lineage" not in json.dumps(manifest)
        assert len(dataset_lineage(catalog.dataset_root("circuit"))) == 2


# -- diff ----------------------------------------------------------------------
class TestDiff:
    def test_adds_deletes_moves(self, catalog):
        from repro.engine import Delete

        engine = catalog.create("circuit", boxes(6))
        catalog.tag("circuit", "v1")
        engine.apply_many(
            [
                Insert(moved_box(100, 90.0)),
                Delete(uid=3),
                Move(uid=1, obj=moved_box(1, 40.0)),
            ]
        )
        engine.checkpoint()
        catalog.tag("circuit", "v2")
        engine.close()
        diff = catalog.diff("circuit@v1", "circuit@v2")
        assert diff.added == (100,)
        assert diff.deleted == (3,)
        assert diff.moved == (1,)
        assert diff.unchanged == 4
        # Reversed direction swaps adds and deletes.
        back = catalog.diff("circuit@v2", "circuit@v1")
        assert back.added == (3,) and back.deleted == (100,)

    def test_diff_is_deterministic(self, catalog):
        engine = catalog.create("circuit", boxes(8))
        catalog.tag("circuit", "v1")
        engine.apply_many([Move(uid=u, obj=moved_box(u, 50.0 + u)) for u in (2, 5, 7)])
        engine.checkpoint()
        catalog.tag("circuit", "v2")
        engine.close()
        first = catalog.diff("circuit@v1", "circuit@v2")
        second = catalog.diff("circuit@v1", "circuit@v2")
        assert first.render() == second.render()
        assert first.moved == (2, 5, 7)


# -- cross-dataset joins -------------------------------------------------------
class TestCrossJoin:
    EPS = 0.75

    def _two_datasets(self, catalog):
        engine = catalog.create("circuit", boxes(20))
        catalog.tag("circuit", "v1")
        engine.apply_many([Move(uid=u, obj=moved_box(u, 200.0 + u)) for u in (1, 2, 3)])
        engine.checkpoint()
        engine.close()
        catalog.create("atlas", boxes(15, offset=0.5, first_uid=1000)).close()
        catalog.tag("atlas", "v1")

    def test_equals_brute_force_oracle(self, catalog):
        self._two_datasets(catalog)
        side_a, _ = catalog.objects_at("circuit@v1")
        side_b, _ = catalog.objects_at("atlas@v1")
        result = catalog.join("circuit@v1", "atlas@v1", eps=self.EPS)
        assert list(result.pairs) == brute_join(side_a, side_b, self.EPS)
        assert result.pairs  # the fixture produces matches

    def test_tag_pins_the_epoch_not_the_tip(self, catalog):
        self._two_datasets(catalog)
        pinned = catalog.join("circuit@v1", "atlas@v1", eps=self.EPS)
        tip = catalog.join("circuit", "atlas@v1", eps=self.EPS)
        # uids 1-3 moved far away after v1 — the tip join must lose their pairs.
        assert set(tip.pairs) < set(pinned.pairs)
        assert (pinned.epoch_a, tip.epoch_a) == (0, 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_identical_across_executors_and_backends(self, tmp_path, backend):
        with kernels.use_backend(backend):
            catalog = Catalog(tmp_path / f"cat-{backend}")
            self._two_datasets(catalog)
            single = catalog.join("circuit@v1", "atlas@v1", eps=self.EPS)
            threaded = catalog.join(
                "circuit@v1", "atlas@v1", eps=self.EPS, executor="thread", num_shards=3
            )
            processed = catalog.join(
                "circuit@v1", "atlas@v1", eps=self.EPS, executor="process", num_shards=2
            )
            assert single.pairs == threaded.pairs == processed.pairs

    def test_strategies_agree(self, catalog):
        self._two_datasets(catalog)
        answers = {
            strategy: catalog.join(
                "circuit@v1", "atlas@v1", eps=self.EPS, strategy=strategy
            ).pairs
            for strategy in ("plane-sweep", "nested-loop", "pbsm")
        }
        assert len(set(answers.values())) == 1

    def test_server_round_trip(self, catalog):
        from repro.server import Client, serve_in_background
        from repro.service import ShardedEngine

        self._two_datasets(catalog)
        local = catalog.join("circuit@v1", "atlas@v1", eps=self.EPS)
        service = ShardedEngine(boxes(8), num_shards=2)
        handle = serve_in_background(service, catalog=catalog)
        try:
            with Client(handle.host, handle.port) as client:
                remote = client.cross_join("circuit@v1", ("atlas", "v1"), eps=self.EPS)
                assert sorted(map(tuple, remote.payload)) == list(local.pairs)
                with pytest.raises(repro.ServerError, match="unknown dataset"):
                    client.cross_join("ghost@v1", "atlas@v1", eps=self.EPS)
        finally:
            handle.stop()

    def test_server_without_catalog_rejects_cleanly(self):
        from repro.server import Client, serve_in_background
        from repro.service import ShardedEngine

        service = ShardedEngine(boxes(8), num_shards=2)
        handle = serve_in_background(service)
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(repro.ServerError, match="catalog"):
                    client.cross_join("a@v1", "b@v1", eps=1.0)
        finally:
            handle.stop()


# -- tag-aware prune (satellite: compaction must not strand a tag) -------------
class TestPrune:
    def _churned_dataset(self, catalog, segment_bytes=256):
        """A dataset whose WAL spans many small segments and whose
        checkpoints bracket a tagged mid-history epoch."""
        engine = catalog.create(
            "circuit", boxes(10), wal_kwargs={"segment_bytes": segment_bytes}
        )
        engine.apply_many([Insert(moved_box(100, 90.0))])
        engine.checkpoint()  # checkpoint at epoch 1
        catalog.tag("circuit", "pinned")  # tag -> epoch 1
        for step in range(6):
            engine.apply_many([Move(uid=100, obj=moved_box(100, 95.0 + step))])
        engine.checkpoint()  # checkpoint at epoch 7
        engine.close()
        return engine

    def test_prune_keeps_what_tags_need(self, catalog):
        self._churned_dataset(catalog)
        report = catalog.prune("circuit")
        # Base epoch-0 checkpoint is reclaimed; the tag's (1) and the tip's
        # (7) survive.
        assert report.kept_checkpoints == (1, 7)
        assert report.removed_checkpoints == (0,)
        epochs = [e for e, _ in list_checkpoints(checkpoints_path(catalog.dataset_root("circuit")))]
        assert epochs == [1, 7]
        ro = catalog.open("circuit@pinned")
        assert ro.last_recovery.epoch == 1
        assert len(ro.objects) == 11

    def test_wal_segments_a_tag_needs_are_pinned(self, catalog):
        self._churned_dataset(catalog)
        report = catalog.prune("circuit")
        # The tag's seeding checkpoint anchors at wal_seq 1: segments
        # holding batches 2..7 must survive even though the tip checkpoint
        # folds them in.
        assert report.wal_pin_seq == 1
        ro = catalog.open("circuit@pinned")
        assert [o.uid for o in ro.objects if o.uid == 100] == [100]

    def test_untagged_history_is_reclaimed(self, catalog):
        self._churned_dataset(catalog)
        catalog.untag("circuit", "pinned")
        report = catalog.prune("circuit")
        assert report.kept_checkpoints == (7,)
        assert report.wal_pin_seq == 7
        assert report.wal_segments_removed > 0
        # The tip still opens; the pruned mid-history epoch fails loudly.
        assert len(catalog.open("circuit").objects) == 11
        with pytest.raises(repro.DurabilityError):
            catalog.open("circuit", at_epoch=1)

    def test_kill_and_recover_after_prune(self, tmp_path):
        """Crash-abandon after prune: the tag must still recover exactly."""
        root = tmp_path / "cat"
        catalog = Catalog(root)
        self._churned_dataset(catalog)
        oracle_uids = sorted(o.uid for o in catalog.open("circuit@pinned").objects)
        catalog.prune("circuit")
        engine = catalog.open("circuit")  # writable tip
        engine.apply_many([Insert(moved_box(200, 120.0))])
        del engine  # SIGKILL stand-in: no close(), the WAL has the batch
        reopened = Catalog(root)
        recovered = reopened.open("circuit@pinned")
        assert sorted(o.uid for o in recovered.objects) == oracle_uids
        assert len(reopened.open("circuit").objects) == 12

    def test_arena_compact_then_restore_across_a_tagged_epoch(self, catalog):
        """compact() must not invalidate a snapshot taken before a tag."""
        from repro.engine import Delete

        arena = ColumnarArena.from_objects(boxes(8))
        snap = arena.snapshot()
        arena.tombstone(2)
        arena.tombstone(5)
        arena.compact()
        arena.append(moved_box(300, 150.0))
        arena.restore(snap)
        assert sorted(arena.live_uids()) == list(range(1, 9))
        # And through the durable stack: compaction happens implicitly on
        # checkpoint round-trips; the tagged epoch must stay openable.
        engine = catalog.create("circuit", boxes(8))
        catalog.tag("circuit", "v1")
        engine.apply_many([Delete(uid=2)])
        engine.engine.arena.compact()
        engine.checkpoint()
        engine.close()
        catalog.prune("circuit")
        assert sorted(o.uid for o in catalog.open("circuit@v1").objects) == list(
            range(1, 9)
        )


# -- mixed-format checkpoints through the catalog ------------------------------
class TestMixedFormatThroughCatalog:
    def _mixed_dataset(self, catalog):
        """Binary epoch-0 base, JSON mid-history checkpoint, binary tip."""
        engine = catalog.create("circuit", boxes(12))
        engine.apply_many([Insert(moved_box(100, 60.0))])
        engine.apply_many([Move(uid=4, obj=moved_box(4, 70.0))])
        # Hand-written v1 JSON checkpoint at epoch 2 (wal seq == epoch).
        root = catalog.dataset_root("circuit")
        write_checkpoint(
            checkpoints_path(root), engine.objects, epoch=2, wal_seq=2, format="json"
        )
        catalog.tag("circuit", "json-era")
        engine.apply_many([Insert(moved_box(101, 80.0))])
        engine.checkpoint()  # binary v2 at epoch 3
        catalog.tag("circuit", "tip-era")
        engine.close()
        return root

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parity_vs_direct_open_on_all_four_kinds(self, tmp_path, backend):
        with kernels.use_backend(backend):
            catalog = Catalog(tmp_path / f"cat-{backend}")
            root = self._mixed_dataset(catalog)
            for tag, epoch in (("json-era", 2), ("tip-era", 3)):
                via_catalog = catalog.open(f"circuit@{tag}")
                direct = repro.open(root, durable=False, at_epoch=epoch)
                window = AABB(-5.0, -5.0, -5.0, 75.0, 5.0, 5.0)
                assert (
                    via_catalog.execute(RangeQuery(window)).payload
                    == direct.execute(RangeQuery(window)).payload
                )
                assert (
                    via_catalog.execute(KNNQuery((0.0, 0.0, 0.0), 5)).payload
                    == direct.execute(KNNQuery((0.0, 0.0, 0.0), 5)).payload
                )
                # An unbound engine needs explicit sides: self-join on the
                # recovered objects of each opening.
                def self_join(engine):
                    objs = tuple(engine.objects)
                    return engine.execute(
                        SpatialJoin(eps=1.5, side_a=objs, side_b=objs)
                    ).payload

                assert sorted(self_join(via_catalog)) == sorted(self_join(direct))
                windows = (window, AABB(10.0, -2.0, -2.0, 30.0, 2.0, 2.0))
                got = via_catalog.execute(Walkthrough(windows)).payload
                expected = direct.execute(Walkthrough(windows)).payload
                assert [s.result_size for s in got.steps] == [
                    s.result_size for s in expected.steps
                ]

    def test_json_era_tag_sees_the_json_state(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        self._mixed_dataset(catalog)
        json_era = catalog.open("circuit@json-era")
        assert sorted(o.uid for o in json_era.objects) == list(range(1, 13)) + [100]
        tip = catalog.open("circuit@tip-era")
        assert 101 in {o.uid for o in tip.objects}


# -- the at_epoch escape hatch on sharded roots (satellite bugfix) -------------
class TestShardedAtEpochGuards:
    def _sharded_root(self, tmp_path):
        root = tmp_path / "svc"
        service = repro.create(boxes(12), root, sharded=True, num_shards=2)
        service.apply_many([Move(uid=1, obj=moved_box(1, 60.0))])
        from repro.durability import checkpoint_sharded

        checkpoint_sharded(root, service)
        service.close()
        return root

    def test_every_rejection_names_the_escape_hatch(self, tmp_path):
        root = self._sharded_root(tmp_path)
        # Path 1: the early api.py guard (sharded + durable + at_epoch).
        with pytest.raises(
            repro.DurabilityError, match="sharded=True, durable=False"
        ):
            repro.open(root, sharded=True, durable=True, at_epoch=0)
        # Path 2: the one write-open rule both engine kinds share, reached
        # here through a single-engine open of a *sharded* root.
        with pytest.raises(
            repro.DurabilityError, match="sharded=True, durable=False"
        ):
            repro.open(root, at_epoch=0)

    def test_the_named_escape_hatch_works(self, tmp_path):
        root = self._sharded_root(tmp_path)
        service = repro.open(root, sharded=True, durable=False, at_epoch=0)
        try:
            assert service.epoch == 0
            assert len(service.snapshot_objects()[1]) == 12
        finally:
            service.close()

    def test_late_guard_does_not_leak_the_worker_pool(self, tmp_path):
        """A WAL open failing *after* recovery must close the pool."""
        import shutil

        root = self._sharded_root(tmp_path)
        shutil.rmtree(wal_path(root))
        wal_path(root).write_text("not a directory")
        before = threading.active_count()
        with pytest.raises(OSError):
            repro.open(root, sharded=True)
        assert threading.active_count() <= before


# -- CLI (satellite: clean error paths + datasets commands) --------------------
class TestDatasetsCli:
    def _make_catalog(self, tmp_path) -> str:
        root = str(tmp_path / "cat")
        assert cli_main(
            ["datasets", "--catalog", root, "create", "circuit", "--neurons", "6", "--seed", "3"]
        ) == 0
        assert cli_main(
            ["datasets", "--catalog", root, "create", "atlas", "--neurons", "5", "--seed", "5"]
        ) == 0
        return root

    def test_create_tag_list_diff_join(self, capsys, tmp_path):
        root = self._make_catalog(tmp_path)
        assert cli_main(["datasets", "--catalog", root, "tag", "circuit", "v1"]) == 0
        assert cli_main(["datasets", "--catalog", root, "list"]) == 0
        out = capsys.readouterr().out
        assert "tag circuit@v1 -> epoch 0" in out
        assert "circuit:" in out and "atlas:" in out
        assert cli_main(
            ["datasets", "--catalog", root, "diff", "circuit@v1", "circuit"]
        ) == 0
        assert "+0 added, -0 deleted" in capsys.readouterr().out
        assert cli_main(
            ["query", "join", "--dataset", "circuit@v1", "--against", "atlas",
             "--catalog", root, "--eps", "2.0"]
        ) == 0
        assert "join circuit@v1" in capsys.readouterr().out

    def test_lineage_and_prune(self, capsys, tmp_path):
        root = self._make_catalog(tmp_path)
        assert cli_main(["datasets", "--catalog", root, "lineage", "circuit"]) == 0
        assert "checkpoint base" in capsys.readouterr().out
        assert cli_main(["datasets", "--catalog", root, "prune", "circuit"]) == 0
        assert "prune circuit" in capsys.readouterr().out

    def test_missing_catalog_fails_cleanly(self, capsys, tmp_path):
        code = cli_main(["datasets", "--catalog", str(tmp_path / "none"), "list"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_unknown_dataset_fails_cleanly(self, capsys, tmp_path):
        root = self._make_catalog(tmp_path)
        code = cli_main(["datasets", "--catalog", root, "tag", "ghost", "v1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err and "Traceback" not in err

    def test_query_on_missing_circuit_fails_cleanly(self, capsys, tmp_path):
        code = cli_main(["query", "range", "--circuit", str(tmp_path / "none")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_half_specified_cross_join_fails_cleanly(self, capsys):
        code = cli_main(["query", "join", "--dataset", "a@v1"])
        assert code == 2
        assert "--against" in capsys.readouterr().err

    def test_cross_join_flags_require_join_kind(self, capsys, tmp_path):
        root = self._make_catalog(tmp_path)
        code = cli_main(
            ["query", "range", "--dataset", "circuit", "--against", "atlas",
             "--catalog", root]
        )
        assert code == 2
        assert "join kind" in capsys.readouterr().err

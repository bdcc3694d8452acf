"""Durability subsystem: WAL, checkpoints, and epoch-exact crash recovery.

The acceptance property is *kill-and-recover*: interrupting a write
workload at any batch boundary and recovering from disk yields an engine
whose epoch, uid set and all four query-kind answers match a never-crashed
oracle exactly — across ≥ 50 seeded runs and both kernel backends.  Torn
WAL tails and corrupt records must degrade to the last durable batch, and
a half-written checkpoint must read as "never happened".
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading

import pytest

import repro
from repro import kernels
from repro.durability import (
    WriteAheadLog,
    checkpoint,
    checkpoints_path,
    durable_tip,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    open_durable,
    read_wal,
    recover_engine,
    wal_path,
    write_checkpoint,
)
from repro.durability.serde import decode_mutation, decode_object, encode_mutation, encode_object
from repro.durability.wal import _encode_record
from repro.engine import (
    Delete,
    Insert,
    KNNQuery,
    Move,
    RangeQuery,
    SpatialEngine,
    SpatialJoin,
    Walkthrough,
)
from repro.engine.mutations import validate_finite_geometry
from repro.errors import (
    CheckpointMismatchError,
    DurabilityError,
    EngineError,
    ProtocolError,
    WalCorruptionError,
)
from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3
from repro.neuro.circuit import generate_circuit
from repro.objects import BoxObject
from repro.server.protocol import encode_frame
from repro.service import ShardedEngine
from repro.utils.rng import derive_seed
from tests.conftest import grid_boxes, write_v1_checkpoint
from tests.test_mutation_oracle import (
    WORLD,
    MutationScript,
    brute_join,
    brute_knn,
    brute_range,
    canonical_knn,
    split_sides,
)

BACKENDS = kernels.available_backends()

#: Seeded kill-and-recover runs (the acceptance floor is 50).
N_KILL_RUNS = 50


def sample_mutations(n: int = 6) -> list:
    """A small deterministic batch touching every mutation kind."""
    boxes = grid_boxes(3)
    out: list = []
    for i in range(n):
        if i % 3 == 0:
            out.append(
                Insert(BoxObject(uid=1000 + i, box=AABB(i, i, i, i + 1, i + 1, i + 1)))
            )
        elif i % 3 == 1:
            out.append(Delete(boxes[i].uid))
        else:
            out.append(
                Move(boxes[i].uid, BoxObject(uid=boxes[i].uid, box=AABB(0, 0, 0, i + 1, 1, 1)))
            )
    return out


def recover(root, **kwargs):
    """Read-only front-door recovery; returns its :class:`Recovery` record."""
    return repro.open(root, durable=False, **kwargs).last_recovery


def last_segment(root):
    segments = sorted(wal_path(root).glob("wal-*.seg"))
    assert segments, f"no WAL segments under {root}"
    return segments[-1]


def wal_records(wal_dir):
    """``(segment, data, body_start, length, seq)`` for every framed record.

    Walks the record framing (``[len u32][crc u32][seq u64][payload]``)
    without checking CRCs, so a damaged record is still listed.
    """
    for segment in sorted(wal_dir.glob("wal-*.seg")):
        data = bytearray(segment.read_bytes())
        offset = 8  # segment file header: magic + format version
        while offset + 8 <= len(data):
            length, _crc = struct.unpack_from("<II", data, offset)
            body_start = offset + 8
            (seq,) = struct.unpack_from("<Q", data, body_start)
            yield segment, data, body_start, length, seq
            offset = body_start + 8 + length


def wal_record_seqs(wal_dir) -> list[int]:
    """The seq of every record on disk, damaged or not, in log order."""
    return [seq for *_rest, seq in wal_records(wal_dir)]


def wal_bytes(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in wal_path(root).glob("wal-*.seg")}


def diverged_tip_root(root, **create_kwargs) -> None:
    """A durability root whose recovery cannot reach its durable tip.

    Durable tip 12, checkpoints at epochs 0 and 8, a bit flip in record
    seq 5, and the epoch-8 manifest's object count raised by one.  The
    tip guard still accepts that checkpoint (its data CRC matches) and
    anchors at seq 8; a full load rejects it, so recovery falls back to
    epoch 0 and stops at the flipped record: epoch 4.
    """
    script = MutationScript(seed=84, n_objects=24)
    engine = repro.create(script.initial_objects(), root, page_capacity=12, **create_kwargs)
    for _ in range(8):
        engine.apply_many(script.next_batch(3))
    checkpoint(root, engine)
    for _ in range(4):
        engine.apply_many(script.next_batch(3))
    engine.close()
    flip_payload_bit(wal_path(root), target_seq=5)
    manifest_path = checkpoints_path(root) / "ckpt-0000000008" / "manifest.json"
    record = json.loads(manifest_path.read_text(encoding="utf-8"))
    record["num_objects"] += 1
    manifest_path.write_text(json.dumps(record), encoding="utf-8")


def flip_record_bit(wal_dir, target_seq: int, field: str = "payload") -> None:
    """Flip one bit inside the record carrying ``target_seq``.

    Walks the record framing (:func:`wal_records`), so the damage is
    surgical: that record's CRC fails, its length header stays intact, and
    every other record is untouched.  ``field`` picks
    where the flip lands — ``"payload"`` keeps the seq readable,
    ``"seq"`` hits the high byte of the seq field itself, so the damaged
    record *claims* a garbage sequence number.
    """
    for segment, data, body_start, length, seq in wal_records(wal_dir):
        if seq == target_seq:
            if field == "seq":
                data[body_start + 7] ^= 0x80  # little-endian high byte
            else:
                data[body_start + 8 + length // 2] ^= 0x01
            segment.write_bytes(bytes(data))
            return
    raise AssertionError(f"no WAL record with seq {target_seq} under {wal_dir}")


def flip_payload_bit(wal_dir, target_seq: int) -> None:
    flip_record_bit(wal_dir, target_seq, field="payload")


# -- serialisation -------------------------------------------------------------
class TestSerde:
    def test_segment_round_trips_exactly(self):
        segment = Segment(
            uid=42,
            p0=Vec3(1.25, -3.5, 0.1000000000000000055511151231257827),
            p1=Vec3(7.75, 2.25, -9.5),
            radius=0.7071067811865476,
            neuron_id=3,
            branch_id=11,
            order=5,
        )
        assert decode_object(json.loads(json.dumps(encode_object(segment)))) == segment

    def test_box_object_round_trips_exactly(self):
        obj = BoxObject(uid=7, box=AABB(-1.1, 0.3, 2.7, 3.14159, 4.0, 5.5))
        assert decode_object(json.loads(json.dumps(encode_object(obj)))) == obj

    def test_every_mutation_kind_round_trips(self):
        for mutation in sample_mutations():
            encoded = json.loads(json.dumps(encode_mutation(mutation)))
            assert decode_mutation(encoded) == mutation

    def test_unknown_object_type_rejected_at_write_time(self):
        class Weird:
            uid = 1
            aabb = AABB(0, 0, 0, 1, 1, 1)

        with pytest.raises(DurabilityError):
            encode_object(Weird())

    def test_bad_records_rejected_at_read_time(self):
        with pytest.raises(DurabilityError):
            decode_object({"t": "mesh", "uid": 1})
        with pytest.raises(DurabilityError):
            decode_mutation({"m": "truncate"})

    def test_durability_errors_are_engine_errors(self):
        assert issubclass(DurabilityError, EngineError)
        assert issubclass(WalCorruptionError, DurabilityError)
        assert issubclass(CheckpointMismatchError, DurabilityError)


# -- the write-ahead log -------------------------------------------------------
class TestWriteAheadLog:
    def test_append_flush_scan_round_trip(self, tmp_path):
        batches = [sample_mutations(4), sample_mutations(6)[::-1]]
        with WriteAheadLog(tmp_path / "wal") as wal:
            seqs = [wal.append(batch) for batch in batches]
        assert seqs == [1, 2]
        scan = read_wal(tmp_path / "wal")
        assert not scan.truncated
        assert [seq for seq, _ in scan.batches] == [1, 2]
        assert [batch for _, batch in scan.batches] == batches

    def test_segment_rotation_bounds_files(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_bytes=600)
        for _ in range(12):
            wal.append(sample_mutations(4))
        wal.close()
        assert wal.num_segments > 1
        scan = read_wal(tmp_path / "wal")
        assert [seq for seq, _ in scan.batches] == list(range(1, 13))
        assert wal.stats.segments_created == wal.num_segments

    def test_reopen_resumes_the_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(sample_mutations(2))
            wal.append(sample_mutations(2))
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.last_seq == 2
            assert wal.append(sample_mutations(2)) == 3
        assert [seq for seq, _ in read_wal(tmp_path / "wal").batches] == [1, 2, 3]

    def test_decode_free_scan_reports_geometry_only(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(4):
                wal.append(sample_mutations(3))
        scan = read_wal(tmp_path / "wal", decode=False)
        assert scan.batches == []  # payloads deliberately left undecoded
        assert scan.last_seq == 4
        assert not scan.truncated

    def test_fsync_runs_once_per_append(self, tmp_path, monkeypatch):
        calls: list[int] = []
        real_fsync = os.fsync

        def counting_fsync(fd: int) -> None:
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr("repro.durability.wal.os.fsync", counting_fsync)
        with WriteAheadLog(tmp_path / "plain") as wal:
            wal.append(sample_mutations(2))
        assert calls == []  # fsync is off by default
        with WriteAheadLog(tmp_path / "wal", fsync=True) as wal:
            for expected in range(1, 4):
                wal.append(sample_mutations(2))
                assert len(calls) == expected
        assert len(calls) == 3  # close() adds none
        assert len(read_wal(tmp_path / "wal").batches) == 3

    def test_a_failed_append_closes_the_log_and_keeps_acked_batches(
        self, tmp_path, monkeypatch
    ):
        """An fsync error may leave the failed record on disk.  Appending
        again under its seq would break the sequence and tail repair would
        cut every batch acknowledged after it, so the log refuses."""
        real_fsync = os.fsync

        def failing_fsync(fd: int) -> None:
            monkeypatch.setattr("repro.durability.wal.os.fsync", real_fsync)
            raise OSError("injected fsync error")

        wal = WriteAheadLog(tmp_path / "wal", fsync=True)
        assert wal.append(sample_mutations(1)) == 1
        monkeypatch.setattr("repro.durability.wal.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            wal.append(sample_mutations(2))
        with pytest.raises(DurabilityError):
            wal.append(sample_mutations(3))
        wal.close()
        with WriteAheadLog(tmp_path / "wal") as reopened:
            # The unacknowledged record reached the file; the log resumes after it.
            assert reopened.last_seq == 2
            assert reopened.append(sample_mutations(3)) == 3
        scan = read_wal(tmp_path / "wal", strict=True)
        assert [seq for seq, _ in scan.batches] == [1, 2, 3]

    def test_empty_batch_and_closed_log_are_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(DurabilityError):
            wal.append([])
        wal.close()
        with pytest.raises(DurabilityError):
            wal.append(sample_mutations(1))

    def test_concurrent_tail_reads_never_corrupt_the_log(self, tmp_path):
        """The WAL-shipping catch-up path (tail from a server thread)
        races the writing thread's appends; the log's internal lock must
        keep the record stream exact."""
        wal = WriteAheadLog(tmp_path / "wal")
        stop = threading.Event()
        failures: list[BaseException] = []

        def tail_loop() -> None:
            try:
                while not stop.is_set():
                    seqs = [seq for seq, _ in wal.tail(0)]
                    assert seqs == sorted(set(seqs)), f"duplicated seqs: {seqs}"
            except BaseException as error:
                failures.append(error)

        readers = [threading.Thread(target=tail_loop) for _ in range(2)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(200):
                wal.append(sample_mutations(2))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        wal.close()
        assert not failures, failures
        scan = read_wal(tmp_path / "wal", strict=True)
        assert [seq for seq, _ in scan.batches] == list(range(1, 201))


class TestTornTail:
    def build_wal(self, tmp_path, batches: int = 4):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(batches):
                wal.append(sample_mutations(5))

    def test_truncated_tail_record_reads_as_prefix(self, tmp_path):
        self.build_wal(tmp_path)
        segment = last_segment(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-7])  # tear the last record
        scan = read_wal(tmp_path / "wal")
        assert scan.truncated
        assert "torn record" in scan.corruption
        assert [seq for seq, _ in scan.batches] == [1, 2, 3]
        with pytest.raises(WalCorruptionError):
            read_wal(tmp_path / "wal", strict=True)

    def test_bit_flipped_crc_stops_the_scan(self, tmp_path):
        self.build_wal(tmp_path)
        segment = last_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0x40  # flip one bit mid-file
        segment.write_bytes(bytes(data))
        scan = read_wal(tmp_path / "wal")
        assert scan.truncated
        assert len(scan.batches) < 4
        for seq, batch in scan.batches:  # the durable prefix still decodes
            assert batch == sample_mutations(5)

    def test_reopen_repairs_the_tail_and_resumes(self, tmp_path):
        self.build_wal(tmp_path)
        segment = last_segment(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-3])
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.stats.tail_repaired
            assert wal.last_seq == 3
            assert wal.append(sample_mutations(2)) == 4
        scan = read_wal(tmp_path / "wal")
        assert not scan.truncated  # the torn bytes are physically gone
        assert [seq for seq, _ in scan.batches] == [1, 2, 3, 4]

    def test_missing_middle_segment_is_detected_as_a_gap(self, tmp_path):
        """Losing a whole segment must not silently splice the history."""
        with WriteAheadLog(tmp_path / "wal", segment_bytes=600) as wal:
            for _ in range(9):
                wal.append(sample_mutations(4))
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert len(segments) >= 3
        segments[1].unlink()  # a *middle* segment vanishes
        scan = read_wal(tmp_path / "wal")
        assert scan.truncated
        assert "contiguous" in scan.corruption
        # Only the prefix before the gap survives; nothing after leaks in.
        seqs = [seq for seq, _ in scan.batches]
        assert seqs == list(range(1, len(seqs) + 1))
        assert scan.last_seq < 9

    def test_header_level_damage_drops_the_segment(self, tmp_path):
        self.build_wal(tmp_path)
        segment = last_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[0] ^= 0xFF  # destroy the magic
        segment.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.stats.tail_repaired
            assert not segment.exists()
            assert wal.last_seq == 0


class TestCheckpointAnchoredDamage:
    """Damage confined to checkpoint-covered history must cost nothing."""

    def build_segmented_wal(self, tmp_path, batches: int = 9):
        with WriteAheadLog(tmp_path / "wal", segment_bytes=600) as wal:
            for _ in range(batches):
                wal.append(sample_mutations(4))
        return sorted((tmp_path / "wal").glob("wal-*.seg"))

    def test_anchored_read_skips_covered_damage_and_keeps_the_suffix(self, tmp_path):
        segments = self.build_segmented_wal(tmp_path)
        early = segments[0]  # damage lands in the oldest records
        data = bytearray(early.read_bytes())
        data[len(data) // 2] ^= 0x10
        early.write_bytes(bytes(data))
        # Without an anchor the suffix is lost ...
        plain = read_wal(tmp_path / "wal")
        assert plain.truncated and plain.last_seq < 9
        # ... but anchored at a checkpoint that folds the damage in, the
        # whole valid suffix survives and replay needs nothing older.
        anchored = read_wal(tmp_path / "wal", anchor_seq=4)
        assert not anchored.truncated
        assert anchored.covered_gap
        assert anchored.last_seq == 9
        assert [seq for seq, _ in anchored.suffix(4)] == list(range(5, 10))

    def test_anchored_repair_keeps_the_suffix_on_reopen(self, tmp_path):
        segments = self.build_segmented_wal(tmp_path)
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0x10
        segments[0].write_bytes(bytes(data))
        with WriteAheadLog(tmp_path / "wal", anchor_seq=4) as wal:
            assert wal.last_seq == 9  # nothing durable was cut
            assert wal.append(sample_mutations(2)) == 10
        anchored = read_wal(tmp_path / "wal", anchor_seq=4)
        assert anchored.last_seq == 10

    def test_recovery_survives_bit_flip_in_folded_history(self, tmp_path):
        """The end-to-end version: checkpoint, more batches, then a bit flip
        in a record the checkpoint folds in — recovery still reaches the
        durable tip instead of quietly dropping back to the checkpoint."""
        script = MutationScript(seed=91, n_objects=30)
        root = tmp_path / "d"
        durable = repro.create(
            script.initial_objects(), root, page_capacity=12, wal_kwargs={"segment_bytes": 600}
        )
        for _ in range(3):
            durable.apply_many(script.next_batch(4))
        checkpoint(root, durable)  # folds batches 1-3 in
        for _ in range(3):
            durable.apply_many(script.next_batch(4))
        durable.close()
        segments = sorted(wal_path(root).glob("wal-*.seg"))
        assert len(segments) >= 2
        data = bytearray(segments[0].read_bytes())
        data[len(data) // 2] ^= 0x08  # damage folded-in history
        segments[0].write_bytes(bytes(data))
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.epoch == 6  # the valid suffix survived
        assert not recovery.wal_truncated
        assert sorted(o.uid for o in recovery.engine.objects) == sorted(script.model)
        # Reopening for writing must not destroy it either.
        reopened = repro.open(root, page_capacity=12)
        assert reopened.epoch == 6
        reopened.close()

    def test_covered_bit_flip_inside_one_segment_keeps_the_suffix(self, tmp_path):
        """The default geometry is a single 4 MiB segment, so skipping
        covered damage must work *within* a segment, not just across
        segment boundaries: the corrupt record's intact length header gives
        the next boundary, and the whole valid suffix survives."""
        with WriteAheadLog(tmp_path / "wal") as wal:  # default segment_bytes
            for _ in range(12):
                wal.append(sample_mutations(4))
        assert len(sorted((tmp_path / "wal").glob("wal-*.seg"))) == 1
        flip_payload_bit(tmp_path / "wal", target_seq=5)
        anchored = read_wal(tmp_path / "wal", anchor_seq=8)
        assert not anchored.truncated
        assert anchored.covered_gap
        assert anchored.last_seq == 12
        assert [seq for seq, _ in anchored.suffix(8)] == [9, 10, 11, 12]

    def test_bit_flip_above_the_anchor_still_ends_the_scan(self, tmp_path):
        """Only checkpoint-covered damage may be stepped over; a corrupt
        record the replay actually needs still cuts the durable prefix."""
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(12):
                wal.append(sample_mutations(4))
        flip_payload_bit(tmp_path / "wal", target_seq=10)
        anchored = read_wal(tmp_path / "wal", anchor_seq=8)
        assert anchored.truncated
        assert anchored.last_seq == 9
        assert [seq for seq, _ in anchored.suffix(8)] == [9]

    def test_anchored_reopen_survives_in_segment_covered_damage(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(12):
                wal.append(sample_mutations(4))
        flip_payload_bit(tmp_path / "wal", target_seq=5)
        with WriteAheadLog(tmp_path / "wal", anchor_seq=8) as wal:
            assert wal.last_seq == 12  # nothing durable was cut
            assert wal.append(sample_mutations(2)) == 13
        anchored = read_wal(tmp_path / "wal", anchor_seq=8)
        assert anchored.last_seq == 13

    def test_corrupt_seq_field_in_covered_record_cannot_cost_the_suffix(self, tmp_path):
        """A flip landing in the 8-byte seq field makes the damaged record
        *claim* a garbage (huge) sequence number.  Nothing inside a
        CRC-failed record may be trusted: the skip must not depend on the
        claimed seq — the contiguity check above the anchor is what guards
        against splices — so the valid suffix still survives."""
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(12):
                wal.append(sample_mutations(4))
        flip_record_bit(tmp_path / "wal", target_seq=5, field="seq")
        anchored = read_wal(tmp_path / "wal", anchor_seq=8)
        assert not anchored.truncated
        assert anchored.covered_gap
        assert anchored.last_seq == 12
        assert [seq for seq, _ in anchored.suffix(8)] == [9, 10, 11, 12]
        # Opening for writing keeps the suffix too.
        with WriteAheadLog(tmp_path / "wal", anchor_seq=8) as wal:
            assert wal.last_seq == 12

    def test_covered_damage_at_the_tail_never_reuses_a_seq(self, tmp_path):
        """Damage in the last record, covered by the anchor: repair cuts
        the unreadable bytes, but the writer must resume at anchor+1 —
        recycling a folded-in seq would make the next acknowledged batch
        read as already-replayed history and silently vanish."""
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(8):
                wal.append(sample_mutations(4))
        flip_payload_bit(tmp_path / "wal", target_seq=8)
        with WriteAheadLog(tmp_path / "wal", anchor_seq=8) as wal:
            assert wal.stats.tail_repaired
            assert wal.last_seq == 8  # clamped to the anchor
            assert wal.append(sample_mutations(2)) == 9  # not a recycled 8
        anchored = read_wal(tmp_path / "wal", anchor_seq=8)
        assert anchored.last_seq == 9
        assert [seq for seq, _ in anchored.suffix(8)] == [9]

    def test_prune_reclaims_folded_segments(self, tmp_path):
        segments = self.build_segmented_wal(tmp_path)
        assert len(segments) >= 3
        with WriteAheadLog(tmp_path / "wal") as wal:
            removed = wal.prune(up_to_seq=wal.scan().batches[3][0])  # seq 4
            assert removed >= 1
            assert wal.anchor_seq >= 4
            scan = wal.scan()  # the instance's own view still reaches the tip
            assert scan.last_seq == 9
            assert not scan.truncated
            assert [seq for seq, _ in scan.suffix(4)] == list(range(5, 10))
        assert len(sorted((tmp_path / "wal").glob("wal-*.seg"))) < len(segments) + 1

    def test_prune_never_cuts_past_the_position(self, tmp_path):
        self.build_segmented_wal(tmp_path)
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.prune(up_to_seq=9)  # everything folded in
            scan = wal.scan()
            assert scan.batches == []  # nothing left to replay...
            assert not scan.truncated  # ...and that is not corruption
            assert wal.append(sample_mutations(2)) == 10  # appends continue


# -- checkpoints ---------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip_preserves_objects_and_manifest(self, tmp_path):
        objects = grid_boxes(3)
        path = write_checkpoint(
            tmp_path, objects, epoch=5, wal_seq=9, num_shards=4, page_capacity=8
        )
        loaded, manifest = load_checkpoint(path)
        assert sorted(o.uid for o in loaded) == sorted(o.uid for o in objects)
        assert {o.uid: o for o in loaded} == {o.uid: o for o in objects}
        assert manifest.epoch == 5 and manifest.wal_seq == 9
        assert manifest.num_shards == 4
        # Hilbert-packed layout: ceil(27 / 8) pages of clustered objects.
        assert manifest.num_pages == 4
        assert manifest.num_objects == 27

    def test_rewrite_same_epoch_is_idempotent(self, tmp_path):
        objects = grid_boxes(2)
        first = write_checkpoint(tmp_path, objects, epoch=1, wal_seq=1)
        second = write_checkpoint(tmp_path, objects, epoch=1, wal_seq=1)
        assert first == second
        assert len(list_checkpoints(tmp_path)) == 1

    def test_half_written_checkpoint_is_invisible(self, tmp_path):
        objects = grid_boxes(2)
        write_checkpoint(tmp_path, objects, epoch=1, wal_seq=1)
        # Simulate a crash mid-checkpoint: the tmp dir exists, the rename
        # to the final name never happened.
        half = tmp_path / "ckpt-0000000002.tmp"
        half.mkdir()
        (half / "objects.jsonl").write_text("{}\n", encoding="utf-8")
        assert [epoch for epoch, _ in list_checkpoints(tmp_path)] == [1]
        _objects, manifest = latest_checkpoint(tmp_path)
        assert manifest.epoch == 1

    def test_corrupt_data_detected_and_skipped(self, tmp_path):
        write_checkpoint(tmp_path, grid_boxes(2), epoch=1, wal_seq=1)
        newer = write_checkpoint(tmp_path, grid_boxes(3), epoch=2, wal_seq=2)
        data_file = newer / "columns.bin"
        data = bytearray(data_file.read_bytes())
        data[10] ^= 0x20  # bit flip
        data_file.write_bytes(bytes(data))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(newer)
        # latest_checkpoint falls back to the older valid snapshot.
        _objects, manifest = latest_checkpoint(tmp_path)
        assert manifest.epoch == 1

    def test_no_valid_checkpoint_raises_durability_error(self, tmp_path):
        with pytest.raises(DurabilityError):
            latest_checkpoint(tmp_path)
        broken = write_checkpoint(tmp_path, grid_boxes(2), epoch=1, wal_seq=0)
        (broken / "manifest.json").unlink()
        with pytest.raises(DurabilityError):
            latest_checkpoint(tmp_path)

    def test_at_epoch_picks_newest_at_or_below(self, tmp_path):
        for epoch in (1, 3, 6):
            write_checkpoint(tmp_path, grid_boxes(2), epoch=epoch, wal_seq=epoch)
        _objects, manifest = latest_checkpoint(tmp_path, at_epoch=5)
        assert manifest.epoch == 3
        with pytest.raises(DurabilityError):
            latest_checkpoint(tmp_path, at_epoch=0)


# -- the durable single engine -------------------------------------------------
class TestDurableEngine:
    def test_log_apply_ack_ordering(self, tmp_path):
        durable = repro.create(grid_boxes(3), tmp_path / "d")
        result = durable.apply_many(sample_mutations(6))
        # By ack time the batch is durable ...
        assert durable.wal.last_seq == 1
        assert result.stats.epoch == durable.epoch == 1
        # ... and what is on disk is exactly what was applied.
        scan = read_wal(wal_path(tmp_path / "d"))
        assert scan.batches == [(1, sample_mutations(6))]
        durable.close()

    def test_crash_and_open_is_epoch_exact(self, tmp_path):
        script = MutationScript(seed=31)
        durable = repro.create(script.initial_objects(), tmp_path / "d")
        for _ in range(4):
            durable.apply_many(script.next_batch(5))
        before = sorted(o.uid for o in durable.objects)
        # No close(): the process "dies" here.
        recovered = repro.open(tmp_path / "d")
        assert recovered.epoch == 4
        assert sorted(o.uid for o in recovered.objects) == before
        assert {o.uid: o for o in recovered.objects} == {
            o.uid: o for o in durable.objects
        }
        recovered.close()

    def test_checkpoint_bounds_the_replay(self, tmp_path):
        script = MutationScript(seed=32)
        durable = repro.create(script.initial_objects(), tmp_path / "d")
        for _ in range(3):
            durable.apply_many(script.next_batch(4))
        checkpoint(tmp_path / "d", durable)
        durable.apply_many(script.next_batch(4))
        durable.close()
        recovery = recover_engine(tmp_path / "d")
        assert recovery.checkpoint_epoch == 3
        assert recovery.batches_replayed == 1
        assert recovery.epoch == 4
        assert sorted(o.uid for o in recovery.engine.objects) == sorted(script.model)

    def test_create_refuses_a_dirty_directory(self, tmp_path):
        durable = repro.create(grid_boxes(3), tmp_path / "d")
        durable.apply_many(sample_mutations(3))
        durable.close()
        with pytest.raises(DurabilityError):
            repro.create(grid_boxes(3), tmp_path / "d")

    def test_create_refuses_a_checkpointed_directory_even_without_wal_batches(
        self, tmp_path
    ):
        durable = repro.create(grid_boxes(3), tmp_path / "d")
        durable.close()  # no batches ever appended; WAL is empty
        with pytest.raises(DurabilityError):
            repro.create(grid_boxes(2), tmp_path / "d")

    def test_invalid_batch_is_rejected_before_it_reaches_the_log(self, tmp_path):
        """A batch the engine would refuse must never become durable: a
        logged-but-unreplayable record would poison every later recovery."""
        durable = repro.create(grid_boxes(3), tmp_path / "d")
        good = Insert(BoxObject(uid=500, box=AABB(0, 0, 0, 1, 1, 1)))
        with pytest.raises(EngineError):
            durable.apply_many([good, Delete(999_999)])  # unknown uid
        with pytest.raises(EngineError):
            durable.apply(Insert(grid_boxes(3)[0]))  # duplicate uid
        assert durable.wal.last_seq == 0  # nothing was logged
        assert durable.epoch == 0
        assert durable.num_objects == 27  # the good prefix was not applied
        durable.apply(good)  # the engine itself is still healthy
        durable.close()
        recovery = recover_engine(tmp_path / "d")  # and the dir replays fine
        assert recovery.epoch == 1
        assert recovery.engine.num_objects == 28

    def test_time_travel_open_is_read_only(self, tmp_path):
        script = MutationScript(seed=33)
        durable = repro.create(script.initial_objects(), tmp_path / "d")
        for _ in range(3):
            durable.apply_many(script.next_batch(3))
        durable.close()
        with pytest.raises(DurabilityError):
            repro.open(tmp_path / "d", at_epoch=1)
        recovery = recover(tmp_path / "d", at_epoch=3)  # the tip itself is fine
        assert recovery.epoch == 3

    def test_failed_time_travel_open_is_truly_read_only(self, tmp_path):
        """Checkpoints at epochs 0 and 8, durable tip 12, a bit flip in
        folded-in record seq 5: a refused ``open(at_epoch=3)`` must not
        have run tail repair under the *older* checkpoint's anchor — that
        repair would read the covered damage as an unresolved torn tail
        and permanently destroy acknowledged epochs 9-12."""
        script = MutationScript(seed=81, n_objects=30)
        root = tmp_path / "d"
        durable = repro.create(script.initial_objects(), root, page_capacity=12)
        for _ in range(8):
            durable.apply_many(script.next_batch(3))
        checkpoint(root, durable)  # epoch 8 folds seqs 1-8 in
        for _ in range(4):
            durable.apply_many(script.next_batch(3))
        durable.close()  # durable tip: epoch 12
        flip_payload_bit(wal_path(root), target_seq=5)
        assert recover_engine(root, page_capacity=12).epoch == 12
        with pytest.raises(DurabilityError):
            repro.open(root, at_epoch=3, page_capacity=12)
        # The refused open changed nothing on disk: every acknowledged
        # epoch is still reachable, read-only and for writing.
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.epoch == 12
        assert sorted(o.uid for o in recovery.engine.objects) == sorted(script.model)
        reopened = repro.open(root, page_capacity=12)
        assert reopened.epoch == 12
        reopened.close()

    def test_covered_tail_damage_never_loses_the_next_acked_epoch(self, tmp_path):
        """Checkpoint at epoch 8, then the freshly-folded-in tail record 8
        is damaged: a reopened engine must write its next batch as seq 9,
        not recycle seq 8 — a recycled seq reads as already-folded history
        and every future recovery would silently drop the acked epoch."""
        script = MutationScript(seed=83, n_objects=24)
        root = tmp_path / "d"
        durable = repro.create(script.initial_objects(), root, page_capacity=12)
        for _ in range(8):
            durable.apply_many(script.next_batch(3))
        checkpoint(root, durable)  # epoch 8 folds seqs 1-8 in
        durable.close()
        flip_payload_bit(wal_path(root), target_seq=8)  # covered, at the tail
        reopened = repro.open(root, page_capacity=12)
        assert reopened.epoch == 8
        reopened.apply_many(script.next_batch(3))  # acknowledged epoch 9
        assert reopened.epoch == 9
        reopened.close()
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.epoch == 9
        assert sorted(o.uid for o in recovery.engine.objects) == sorted(script.model)

    def test_open_refuses_when_recovery_cannot_reach_the_tip(self, tmp_path):
        """The tip guard validates checkpoints at manifest+CRC level, the
        recovery at object level.  If the newest checkpoint passes the
        first but fails the second (count mismatch — the manifest has no
        self-checksum), recovery falls back to an older checkpoint; with
        covered damage then blocking the replay, the recovered epoch sits
        below the durable tip, and opening for writing there would
        misalign seq and epoch — it must fail loudly instead."""
        root = tmp_path / "d"
        diverged_tip_root(root)
        # Read-only recovery degrades honestly: epoch-0 fallback, replay
        # stops at the (no longer covered) damage.
        recovery = recover_engine(root, page_capacity=12)
        assert recovery.checkpoint_epoch == 0
        assert recovery.epoch == 4
        assert recovery.wal_truncated
        # Opening for writing at that diverged epoch must refuse.
        with pytest.raises(DurabilityError, match="durable tip"):
            repro.open(root, page_capacity=12)

    def test_sharded_open_refuses_when_recovery_cannot_reach_the_tip(self, tmp_path):
        """The same diverged root, sharded: the writable open must refuse
        too — not resume at the recovered epoch and let WAL tail repair
        cut away acknowledged batches 5-12 — and must leave no worker
        pool behind."""
        root = tmp_path / "d"
        diverged_tip_root(root, sharded=True, num_shards=2)
        before = wal_bytes(root)
        threads = {t.name for t in threading.enumerate()}
        with pytest.raises(DurabilityError, match="durable tip"):
            repro.open(root, sharded=True, page_capacity=12)
        assert wal_bytes(root) == before
        assert wal_record_seqs(wal_path(root)) == list(range(1, 13))
        assert durable_tip(root) == (8, 12)
        lingering = {t.name for t in threading.enumerate()} - threads
        assert not {name for name in lingering if name.startswith("repro-shard")}


# -- non-finite geometry at mutation ingress ----------------------------------
def crafted_segment(uid: int, **overrides) -> Segment:
    """A Segment whose validated ``__post_init__`` never saw ``overrides``.

    Models the two real bypasses — unpickling and direct
    ``object.__setattr__`` — both of which keep the stale *finite*
    cached AABB computed from the original fields.
    """
    seg = Segment(uid=uid, p0=Vec3(0.0, 0.0, 0.0), p1=Vec3(1.0, 0.0, 0.0), radius=0.5)
    for name, value in overrides.items():
        object.__setattr__(seg, name, value)
    return seg


class TestNonFiniteIngress:
    """Non-finite geometry (NaN/inf smuggled past ``__post_init__``) is
    rejected at mutation ingress, before the WAL, the wire or a checkpoint
    can see it."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"radius": float("nan")},
            {"radius": float("inf")},
            {"p0": Vec3(float("nan"), 0.0, 0.0)},
            {"p1": Vec3(0.0, float("-inf"), 0.0)},
        ],
        ids=["nan-radius", "inf-radius", "nan-p0", "inf-p1"],
    )
    def test_validate_finite_geometry_checks_raw_fields(self, overrides):
        bad = crafted_segment(uid=4242, **overrides)
        # The cached AABB is stale but finite — exactly the hole: a
        # bounds-only check would wave this object through.
        assert all(math.isfinite(v) for v in (
            bad.aabb.min_x, bad.aabb.min_y, bad.aabb.min_z,
            bad.aabb.max_x, bad.aabb.max_y, bad.aabb.max_z,
        ))
        with pytest.raises(EngineError, match="non-finite"):
            validate_finite_geometry(bad)

    def test_single_engine_rejects_on_insert_and_move(self):
        engine = SpatialEngine(grid_boxes(2), page_capacity=8)
        bad = crafted_segment(uid=999, radius=float("nan"))
        with pytest.raises(EngineError, match="non-finite"):
            engine.apply(Insert(bad))
        assert 999 not in engine.arena
        live_uid = grid_boxes(2)[0].uid
        moved = crafted_segment(uid=live_uid, radius=float("inf"))
        with pytest.raises(EngineError, match="non-finite"):
            engine.apply(Move(live_uid, moved))

    def test_sharded_service_rejects_before_the_wal(self):
        bad = crafted_segment(uid=31337, radius=float("nan"))
        circuit = generate_circuit(n_neurons=6, seed=99)
        with ShardedEngine(
            circuit.segments(), circuit=circuit, num_shards=3, max_queued=64
        ) as service:
            epoch = service.epoch
            with pytest.raises(EngineError, match="non-finite"):
                service.apply_many([Insert(bad)])
            assert service.epoch == epoch  # nothing published
            assert 31337 not in {o.uid for o in service.objects}

    def test_durable_engine_rejects_before_the_wal(self, tmp_path):
        durable = repro.create(grid_boxes(2), tmp_path / "d", page_capacity=8)
        live_uid = grid_boxes(2)[0].uid
        for mutation in (
            Insert(crafted_segment(uid=31337, radius=float("inf"))),
            Move(live_uid, crafted_segment(uid=live_uid, radius=float("nan"))),
        ):
            with pytest.raises(EngineError, match="non-finite"):
                durable.apply_many([mutation])
        assert durable.epoch == 0  # nothing acknowledged ...
        assert durable.wal.last_seq == 0  # ... and nothing logged
        assert 31337 not in {o.uid for o in durable.objects}
        durable.close()

    def test_wal_encoder_is_strict_json(self):
        bad = crafted_segment(uid=77, p0=Vec3(float("nan"), 0.0, 0.0))
        with pytest.raises(ValueError):
            _encode_record(1, [Insert(bad)])

    def test_wire_frames_are_strict_json(self):
        with pytest.raises(ProtocolError, match="strict JSON"):
            encode_frame({"k": "q", "x": float("inf")})

    @pytest.mark.parametrize("format", ["binary", "json"])
    def test_checkpoints_round_trip_tricky_finite_floats(self, tmp_path, format):
        seg = Segment(
            uid=1000, p0=Vec3(-0.0, 1e-308, 0.25), p1=Vec3(1e12, -1e-300, 0.75),
            radius=2.0 ** -30,
        )
        writer = write_checkpoint if format == "binary" else write_v1_checkpoint
        path = writer(tmp_path / format, grid_boxes(2) + [seg], epoch=0, wal_seq=0)
        loaded, _ = load_checkpoint(path)
        back = {o.uid: o for o in loaded}[1000]
        assert back.p0 == seg.p0 and back.p1 == seg.p1
        assert back.radius == seg.radius


# -- time travel ---------------------------------------------------------------
class TestTimeTravel:
    def test_every_epoch_between_checkpoint_and_tip_is_reachable(self, tmp_path):
        script = MutationScript(seed=40)
        durable = repro.create(script.initial_objects(), tmp_path / "d")
        snapshots = {0: sorted(script.model)}
        for epoch in range(1, 6):
            durable.apply_many(script.next_batch(4))
            snapshots[epoch] = sorted(script.model)
            if epoch == 2:
                checkpoint(tmp_path / "d", durable)
        durable.close()
        for epoch, expected_uids in snapshots.items():
            recovery = recover(tmp_path / "d", at_epoch=epoch)
            assert recovery.epoch == epoch, f"epoch {epoch}"
            assert sorted(o.uid for o in recovery.engine.objects) == expected_uids

    def test_unreachable_epoch_raises(self, tmp_path):
        durable = repro.create(grid_boxes(3), tmp_path / "d")
        durable.apply_many(sample_mutations(3))
        durable.close()
        with pytest.raises(DurabilityError):
            recover(tmp_path / "d", at_epoch=7)
        with pytest.raises(DurabilityError):
            recover(tmp_path / "d", at_epoch=-1)

    def test_sharded_time_travel(self, tmp_path):
        script = MutationScript(seed=41)
        service = repro.create(script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2)
        snapshots = {0: sorted(script.model)}
        for epoch in range(1, 4):
            service.apply_many(script.next_batch(4))
            snapshots[epoch] = sorted(script.model)
        service.close()
        for epoch, expected_uids in snapshots.items():
            recovery = recover(tmp_path / "d", sharded=True, at_epoch=epoch)
            assert recovery.engine.epoch == epoch
            assert sorted(o.uid for o in recovery.engine.objects) == expected_uids
            recovery.engine.close()


# -- recovery == oracle, all four query kinds, both backends -------------------
def assert_answers_match(recovered, oracle, script: MutationScript, label: str) -> None:
    """All four query kinds agree between a recovered and an oracle service."""
    window = script.random_window()
    whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
    for box in (window, whole):
        got = recovered.execute(RangeQuery(box)).payload
        assert got == oracle.execute(RangeQuery(box)).payload, f"{label}: range"
        assert got == brute_range(script.model, box), f"{label}: range vs model"
    point = script.random_point()
    for k in (1, 6, len(script.model) + 2):
        got = canonical_knn(recovered.execute(KNNQuery(point, k)).payload)
        assert got == canonical_knn(oracle.execute(KNNQuery(point, k)).payload), (
            f"{label}: knn k={k}"
        )
        assert got == brute_knn(script.model, point, k), f"{label}: knn vs model"
    side_a, side_b = split_sides(script.model)
    if side_a and side_b:
        join = SpatialJoin(eps=2.0, side_a=tuple(side_a), side_b=tuple(side_b))
        got = sorted(recovered.execute(join).payload)
        assert got == sorted(oracle.execute(join).payload), f"{label}: join"
        assert got == brute_join(side_a, side_b, 2.0), f"{label}: join vs model"
    windows = tuple(script.random_window() for _ in range(3))
    walk = Walkthrough(windows)
    assert recovered.execute(walk).payload == oracle.execute(walk).payload, (
        f"{label}: walk"
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestKillAndRecover:
    """The acceptance property, ≥ 50 seeded runs per backend."""

    def test_random_batch_boundary_kills_recover_exactly(self, backend, tmp_path):
        with kernels.use_backend(backend):
            for run in range(N_KILL_RUNS):
                seed = derive_seed(2013, "kill", backend, run)
                script = MutationScript(seed=seed, n_objects=40)
                oracle_script = MutationScript(seed=seed, n_objects=40)
                shards = 1 + run % 3
                root = tmp_path / f"run{run}"
                from repro.service import ShardedEngine

                service = repro.create(
                    script.initial_objects(),
                    root,
                    sharded=True,
                    num_shards=shards,
                    page_capacity=12,
                )
                # The never-crashed oracle applies the identical batch stream.
                oracle = ShardedEngine(
                    oracle_script.initial_objects(), num_shards=shards, page_capacity=12
                )
                try:
                    # Interrupt after a seed-dependent number of batches —
                    # the random batch boundary of the acceptance property.
                    n_batches = run % 5
                    for _ in range(n_batches):
                        service.apply_many(script.next_batch(4))
                        oracle.apply_many(oracle_script.next_batch(4))
                    # SIGKILL stand-in: abandon the service object without
                    # close(); only what the WAL flushed survives (default
                    # policy flushes every batch).
                    recovery = recover(root, sharded=True, page_capacity=12)
                    recovered = recovery.engine
                    label = f"seed={seed} shards={shards} batches={n_batches}"
                    assert recovered.epoch == n_batches, label
                    assert sorted(o.uid for o in recovered.objects) == sorted(
                        script.model
                    ), label
                    assert_answers_match(recovered, oracle, script, label)
                    recovered.close()
                finally:
                    service.close()
                    oracle.close()

    def test_torn_tail_recovers_to_last_durable_batch(self, backend, tmp_path):
        with kernels.use_backend(backend):
            for run in range(8):
                seed = derive_seed(2013, "torn", backend, run)
                script = MutationScript(seed=seed, n_objects=30)
                root = tmp_path / f"run{run}"
                service = repro.create(
                    script.initial_objects(), root, sharded=True, num_shards=2, page_capacity=12
                )
                durable_batches = 2 + run % 2
                for _ in range(durable_batches):
                    service.apply_many(script.next_batch(3))
                durable_model = dict(script.model)
                service.apply_many(script.next_batch(3))  # the batch to lose
                service.close()
                # Tear the tail: the last record becomes unreadable, so the
                # last epoch is no longer durable.
                segment = last_segment(root)
                segment.write_bytes(segment.read_bytes()[:-11])
                recovery = recover(root, sharded=True, page_capacity=12)
                assert recovery.wal_truncated
                assert recovery.epoch == durable_batches
                assert sorted(o.uid for o in recovery.engine.objects) == sorted(
                    durable_model
                )
                recovery.engine.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestRecoveredEngineDifferential:
    """Single-engine recovery answers like a never-crashed SpatialEngine."""

    def test_recovered_engine_matches_oracle(self, backend, tmp_path):
        with kernels.use_backend(backend):
            seed = derive_seed(2013, "engine-diff", backend)
            script = MutationScript(seed=seed, n_objects=48)
            oracle = SpatialEngine(script.initial_objects(), page_capacity=12)
            durable = repro.create(script.initial_objects(), tmp_path / "d", page_capacity=12)
            for _ in range(5):
                batch = script.next_batch(5)
                durable.apply_many(batch)
                oracle.apply_many(batch)
            checkpoint(tmp_path / "d", durable)
            for _ in range(3):
                batch = script.next_batch(5)
                durable.apply_many(batch)
                oracle.apply_many(batch)
            # Crash (no close), recover, compare every query kind.
            recovery = recover_engine(tmp_path / "d", page_capacity=12)
            recovered = recovery.engine
            assert recovery.epoch == 8
            assert recovery.checkpoint_epoch == 5
            window = script.random_window()
            whole = AABB.from_center_extent((WORLD / 2,) * 3, WORLD * 3)
            for box in (window, whole):
                for strategy in ("flat", "rtree"):
                    query = RangeQuery(box, strategy=strategy)
                    assert (
                        sorted(recovered.execute(query).payload)
                        == sorted(oracle.execute(query).payload)
                        == brute_range(script.model, box)
                    )
            point = script.random_point()
            for strategy in ("flat", "rtree"):
                query = KNNQuery(point, 7, strategy=strategy)
                assert canonical_knn(recovered.execute(query).payload) == canonical_knn(
                    oracle.execute(query).payload
                )
            side_a, side_b = split_sides(script.model)
            join = SpatialJoin(eps=2.0, side_a=tuple(side_a), side_b=tuple(side_b))
            assert sorted(recovered.execute(join).payload) == sorted(
                oracle.execute(join).payload
            )
            windows = tuple(script.random_window() for _ in range(3))
            got = recovered.execute(Walkthrough(windows)).payload
            expected = oracle.execute(Walkthrough(windows)).payload
            assert [s.result_size for s in got.steps] == [
                s.result_size for s in expected.steps
            ]
            durable.close()


# -- the sharded service journals through its WAL hook -------------------------
class TestShardedWalHook:
    def test_batch_is_durable_before_the_epoch_publishes(self, tmp_path):
        service = repro.create(grid_boxes(3), tmp_path / "d", sharded=True, num_shards=2)
        try:
            result = service.apply_many(sample_mutations(4))
            assert result.stats.epoch == 1
            assert service.wal.last_seq == 1
            assert read_wal(wal_path(tmp_path / "d")).batches[0][1] == sample_mutations(4)
        finally:
            service.close()

    def test_epoch_listener_runs_after_the_batch_is_on_disk(self, tmp_path):
        """The contract ``add_epoch_listener`` documents, and replication
        streams on: by the time a listener sees an epoch, a fresh scan of
        the log already holds that epoch's batch."""
        script = MutationScript(seed=61, n_objects=24)
        root = tmp_path / "d"
        service = repro.create(
            script.initial_objects(), root, sharded=True, num_shards=2, page_capacity=12
        )
        seen: list[tuple[int, int, bool]] = []

        def listener(epoch, mutations):
            scan = read_wal(root / "wal")
            seen.append((epoch, scan.last_seq, dict(scan.batches).get(epoch) == list(mutations)))

        service.add_epoch_listener(listener)
        try:
            for _ in range(3):
                service.apply_many(script.next_batch(3))
        finally:
            service.close()
        assert seen == [(1, 1, True), (2, 2, True), (3, 3, True)]

    def test_invalid_batches_never_reach_the_log(self, tmp_path):
        service = repro.create(grid_boxes(3), tmp_path / "d", sharded=True, num_shards=2)
        try:
            from repro.errors import ServiceError

            with pytest.raises(ServiceError):
                service.apply_many([Delete(999_999)])
            assert service.wal.last_seq == 0
            assert read_wal(wal_path(tmp_path / "d")).batches == []
        finally:
            service.close()

    def test_empty_batch_is_a_noop_not_an_epoch(self, tmp_path):
        service = repro.create(grid_boxes(3), tmp_path / "d", sharded=True, num_shards=2)
        try:
            result = service.apply_many([])
            assert result.stats.epoch == service.epoch == 0
            assert service.wal.last_seq == 0
        finally:
            service.close()

    def test_checkpoint_sharded_bounds_replay(self, tmp_path):
        script = MutationScript(seed=55, n_objects=30)
        service = repro.create(
            script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2, page_capacity=12
        )
        try:
            for _ in range(3):
                service.apply_many(script.next_batch(3))
            checkpoint(tmp_path / "d", service)
            service.apply_many(script.next_batch(3))
        finally:
            service.close()
        recovery = recover(tmp_path / "d", sharded=True, page_capacity=12)
        assert recovery.checkpoint_epoch == 3
        assert recovery.batches_replayed == 1
        assert recovery.epoch == 4
        recovery.engine.close()

    def test_resume_continues_epochs_and_wal(self, tmp_path):
        script = MutationScript(seed=56, n_objects=30)
        service = repro.create(
            script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2, page_capacity=12
        )
        service.apply_many(script.next_batch(3))
        service.close()
        resumed = repro.open(tmp_path / "d", sharded=True, page_capacity=12)
        try:
            assert resumed.epoch == 1
            resumed.apply_many(script.next_batch(3))
            assert resumed.epoch == 2
            assert resumed.wal.last_seq == 2
        finally:
            resumed.close()
        scan = read_wal(wal_path(tmp_path / "d"))
        assert [seq for seq, _ in scan.batches] == [1, 2]

    def test_checkpointing_a_recovered_walless_service_never_double_replays(
        self, tmp_path
    ):
        """A recovered service has no attached WAL; checkpointing it must
        still record the epoch == seq position, not seq 0 — otherwise the
        next recovery replays the whole log on top of folded-in state."""
        script = MutationScript(seed=57, n_objects=30)
        service = repro.create(
            script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2, page_capacity=12
        )
        for _ in range(2):
            service.apply_many(script.next_batch(3))
        service.close()
        recovery = recover(tmp_path / "d", sharded=True, page_capacity=12)
        assert recovery.engine.wal is None
        checkpoint(tmp_path / "d", recovery.engine)
        recovery.engine.close()
        again = recover(tmp_path / "d", sharded=True, page_capacity=12)
        assert again.checkpoint_epoch == 2
        assert again.batches_replayed == 0  # nothing replays twice
        assert again.epoch == 2
        assert sorted(o.uid for o in again.engine.objects) == sorted(script.model)
        again.engine.close()

    def test_checkpoint_is_exact_when_a_batch_publishes_mid_call(self, tmp_path):
        """A server checkpoints on an executor thread while other sessions'
        batches apply.  A batch that publishes during the call must land
        either in the checkpoint or in the WAL suffix recovery replays,
        never in both: the checkpoint's epoch, objects and ``wal_seq`` come
        from one snapshot."""
        script = MutationScript(seed=59, n_objects=30)
        root = tmp_path / "d"
        service = repro.create(
            script.initial_objects(),
            root,
            sharded=True,
            num_shards=2,
            page_capacity=12,
        )
        try:
            service.apply_many(script.next_batch(3))
            racing_batch = script.next_batch(3)
            real_snapshot = service.snapshot_objects

            def snapshot_then_publish():
                service.snapshot_objects = real_snapshot  # one shot
                taken = real_snapshot()
                service.apply_many(racing_batch)  # publishes right after the read
                return taken

            service.snapshot_objects = snapshot_then_publish
            checkpoint(root, service)
            assert service.epoch == 2
        finally:
            service.close()
        with repro.open(root, sharded=True, page_capacity=12) as reopened:
            assert reopened.epoch == 2
            assert sorted(o.uid for o in reopened.objects) == sorted(script.model)

    def test_resume_with_explicit_shard_count_retiles(self, tmp_path):
        script = MutationScript(seed=58, n_objects=30)
        service = repro.create(
            script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2, page_capacity=12
        )
        service.apply_many(script.next_batch(3))
        service.close()
        resumed = repro.open(tmp_path / "d", sharded=True, num_shards=3, page_capacity=12)
        try:
            assert resumed.num_shards == 3  # explicit count wins on resume
            assert resumed.epoch == 1
        finally:
            resumed.close()

    def test_time_travel_cannot_reattach_the_wal(self, tmp_path):
        """A writable open takes the log for writing (destructive tail
        repair); an open below the durable tip must refuse it and leave
        every durable epoch intact — at the front door and in the shared
        write-open rule itself."""
        script = MutationScript(seed=59, n_objects=30)
        service = repro.create(
            script.initial_objects(), tmp_path / "d", sharded=True, num_shards=2, page_capacity=12
        )
        for _ in range(3):
            service.apply_many(script.next_batch(3))
        service.close()
        with pytest.raises(DurabilityError, match="read-only"):
            repro.open(tmp_path / "d", sharded=True, at_epoch=1, page_capacity=12)
        with pytest.raises(DurabilityError, match="before the durable tip 3"):
            open_durable(tmp_path / "d", sharded=True, at_epoch=1, page_capacity=12)
        # Read-only time travel still works, and the tip is unharmed.
        past = recover(tmp_path / "d", sharded=True, at_epoch=1, page_capacity=12)
        assert past.epoch == 1
        past.engine.close()
        tip = recover(tmp_path / "d", sharded=True, page_capacity=12)
        assert tip.epoch == 3
        tip.engine.close()

    def test_failed_time_travel_does_not_leak_a_worker_pool(self, tmp_path):
        import threading

        service = repro.create(grid_boxes(3), tmp_path / "d", sharded=True, num_shards=2)
        service.apply_many(sample_mutations(3))
        service.close()
        before = {t.name for t in threading.enumerate()}
        with pytest.raises(DurabilityError):
            recover(tmp_path / "d", sharded=True, at_epoch=99)
        lingering = {
            t.name
            for t in threading.enumerate()
            if t.name.startswith("repro-shard")
        } - before
        assert not lingering

    def test_checkpoints_layout_under_root(self, tmp_path):
        service = repro.create(grid_boxes(3), tmp_path / "d", sharded=True, num_shards=2)
        service.close()
        assert wal_path(tmp_path / "d").is_dir()
        assert [epoch for epoch, _ in list_checkpoints(checkpoints_path(tmp_path / "d"))] == [0]

"""Write-ahead log: the durable record of every mutation batch.

An append-only log of serialised :class:`~repro.engine.Insert` /
``Delete`` / ``Move`` batches, one record per ``apply_many`` call.  The
engines log a batch *before* applying it (write-ahead), so any state a
reader was ever shown is reconstructible from the newest checkpoint plus
the log suffix after it.

On-disk format
--------------
A log is a directory of segment files (``wal-00000001.seg``, ...), each
opened with an 8-byte header (magic ``RWAL`` + format version) and closed
when it exceeds the segment byte budget — rotation bounds the cost of the
tail scan on open and lets :meth:`WriteAheadLog.prune` reclaim whole
files once a kept checkpoint folds them in.  A record is

    ``[payload length u32][crc32 u32][batch seq u64][payload bytes]``

with the CRC computed over ``seq + payload``, and the payload a JSON array
of mutations (:mod:`repro.durability.serde`).  Batch sequence numbers are
contiguous from 1, so "the WAL suffix after checkpoint ``S``" is exactly
the records with ``seq > S``.

Write contract
--------------
``append`` encodes a batch's record, writes it to the segment file and
flushes it to the operating system before it returns (with ``fsync=True``
it also calls ``os.fsync``), so every acknowledged batch is on disk: the
log holds no in-memory window that a crash could lose.

Torn-tail detection
-------------------
A crash mid-write leaves a torn record at the physical tail: a short
header, a payload shorter than its length field, or a CRC mismatch.
Opening a :class:`WriteAheadLog` over an existing directory *repairs* the
tail — the torn record and everything after it is truncated away, and
appending resumes after the last durable batch.  :func:`read_wal` is the
read-only view: tolerant by default (stop at the last valid record, flag
``truncated``), strict on request (raise
:class:`~repro.errors.WalCorruptionError`).
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.durability.serde import decode_batch, encode_batch
from repro.engine.mutations import Mutation
from repro.errors import DurabilityError, WalCorruptionError
from repro.obs.metrics import LATENCY_BUCKETS_MS, global_registry

__all__ = ["WriteAheadLog", "WalStats", "WalScan", "read_wal"]

#: Process-wide WAL families, registered eagerly for the wire scrape.
_REGISTRY = global_registry()
_W_FSYNC = _REGISTRY.histogram(
    "repro_wal_fsync_ms",
    "Wall time of one WAL flush (write + flush + optional fsync), ms",
    buckets=LATENCY_BUCKETS_MS,
)
_W_ROTATIONS = _REGISTRY.counter(
    "repro_wal_segment_rotations_total", "WAL segment files closed by rotation"
)
_W_APPENDS = _REGISTRY.counter(
    "repro_wal_batches_appended_total", "Mutation batches appended to any WAL"
)

_MAGIC = b"RWAL"
_FORMAT_VERSION = 1
_FILE_HEADER = _MAGIC + struct.pack("<I", _FORMAT_VERSION)
_RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(seq + payload)
_SEQ = struct.Struct("<Q")
_SEGMENT_GLOB = "wal-*.seg"


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.seg"


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-")[1])


def _encode_record(seq: int, mutations: Sequence[Mutation]) -> bytes:
    # allow_nan=False: a NaN/inf coordinate would otherwise serialise as
    # the nonstandard ``NaN``/``Infinity`` tokens no strict parser reads
    # back.  Ingress validation rejects such geometry before it gets
    # here; this keeps any future gap loud instead of corrupting the log.
    payload = json.dumps(
        encode_batch(mutations), separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    seq_bytes = _SEQ.pack(seq)
    crc = zlib.crc32(seq_bytes + payload)
    return _RECORD_HEADER.pack(len(payload), crc) + seq_bytes + payload


@dataclass
class WalStats:
    """Lifetime counters of one open :class:`WriteAheadLog`."""

    batches_appended: int = 0
    mutations_appended: int = 0
    flushes: int = 0
    bytes_written: int = 0
    segments_created: int = 0
    tail_repaired: bool = False  # did open() truncate a torn tail


@dataclass
class WalScan:
    """What :func:`read_wal` found: the durable batches and how it ended.

    Every record is CRC- and sequence-verified by the scan, but payloads
    are kept as their JSON bytes and decoded only as :meth:`suffix` yields
    them, so a replay holds one decoded batch at a time.
    """

    records: list[tuple[int, bytes]] = field(default_factory=list)  # (seq, payload)
    truncated: bool = False  # a torn/corrupt record cut the scan short
    corruption: str | None = None  # what stopped the scan (None = clean EOF)
    covered_gap: bool = False  # damage skipped because a checkpoint covers it
    last_seq: int = 0

    @property
    def batches(self) -> list[tuple[int, list[Mutation]]]:
        """Every scanned batch, decoded at once (replay streams :meth:`suffix`)."""
        return list(self.suffix(0))

    def suffix(self, after_seq: int) -> Iterator[tuple[int, list[Mutation]]]:
        """The batches to replay on top of a checkpoint at ``after_seq``.

        Each batch is decoded as it is yielded.  A record that passed its
        CRC but does not decode (a writer bug, never a torn write) raises
        :class:`~repro.errors.WalCorruptionError`.
        """
        for seq, payload in self.records:
            if seq > after_seq:
                yield seq, _decode_payload(seq, payload)


def _decode_payload(seq: int, payload: bytes) -> list[Mutation]:
    try:
        return decode_batch(json.loads(payload.decode("utf-8")))
    except (ValueError, KeyError, TypeError, AttributeError, DurabilityError) as error:
        raise WalCorruptionError(f"WAL batch seq {seq}: undecodable payload ({error})") from error


def _scan_segment(
    path: Path, skip_at_or_below: int = 0
) -> tuple[list[tuple[int | None, int, bytes | None]], int, str | None]:
    """Verify one segment file's framing and CRCs.

    Returns ``(records, valid_bytes, corruption)`` where ``records`` are
    ``(seq, end_offset, payload)`` triples, ``valid_bytes`` is the byte
    length of the longest valid prefix, and ``corruption`` names what
    stopped the scan (``None`` for a clean end-of-file).  Payloads stay
    undecoded JSON bytes; records with ``seq <= skip_at_or_below`` keep
    none (``payload is None``): a checkpoint already folds them in, so
    replay never needs their contents.  A record that *fails* its CRC but
    whose framing is intact (the length header points inside the file) is
    stepped over and reported as a ``seq is None`` entry — nothing inside
    a corrupt record, including its seq field, can be trusted, so whether
    the loss is tolerable is decided by the directory scan's sequence
    contiguity check, not by anything the damaged bytes claim.  Only
    physically torn framing (short header, payload past end-of-file) or
    an unreadable file header ends the scan here.
    """
    data = path.read_bytes()
    if len(data) < len(_FILE_HEADER):
        return [], 0, f"segment {path.name}: short file header"
    if data[: len(_MAGIC)] != _MAGIC:
        return [], 0, f"segment {path.name}: bad magic"
    (version,) = struct.unpack_from("<I", data, len(_MAGIC))
    if version != _FORMAT_VERSION:
        return [], 0, f"segment {path.name}: unsupported format version {version}"
    records: list[tuple[int | None, int, bytes | None]] = []
    offset = len(_FILE_HEADER)
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            return records, offset, f"segment {path.name}: torn record header"
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        body_start = offset + _RECORD_HEADER.size
        body_end = body_start + _SEQ.size + length
        if body_end > len(data):
            return records, offset, f"segment {path.name}: torn record payload"
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            records.append((None, body_end, None))
            offset = body_end
            continue
        (seq,) = _SEQ.unpack_from(body, 0)
        payload = None if seq <= skip_at_or_below else body[_SEQ.size :]
        records.append((seq, body_end, payload))
        offset = body_end
    return records, offset, None


def _segments(directory: Path) -> list[Path]:
    return sorted(directory.glob(_SEGMENT_GLOB), key=_segment_index)


@dataclass
class _DirectoryScan:
    """One anchored walk over every segment: records plus repair geometry."""

    records: list[tuple[int, bytes]]
    last_seq: int
    corruption: str | None  # unresolved damage (torn tail / unrecoverable gap)
    covered_gap: bool  # damage or gaps skipped because the anchor covers them
    cut_index: int  # segment index of the last accepted record (-1: none)
    cut_offset: int  # end offset of the last accepted record in that segment
    segments: list[Path]


#: skip_at_or_below value that keeps no payload at all.
_NO_DECODE = (1 << 63) - 1


def _scan_directory(
    directory: Path, anchor_seq: int, decode: bool = True
) -> _DirectoryScan:
    """Walk all segments, accepting the longest replayable batch sequence.

    Sequence numbers must grow contiguously — except across damage or
    gaps whose every missing seq is at or below ``anchor_seq``, the WAL
    position a checkpoint already folds in: those batches are not needed
    for replay, so losing their records loses nothing.  Damage above the
    anchor ends the scan; everything accepted before it is the durable
    prefix.  ``decode=False`` verifies CRCs and sequence geometry without
    keeping any payload — for callers that need only the tip.
    """
    segments = _segments(directory)
    decode_floor = anchor_seq if decode else _NO_DECODE
    kept: list[tuple[int, bytes]] = []
    last_seq = 0
    covered = False
    pending: str | None = None  # damage awaiting a covered resume
    stopped: str | None = None
    cut_index = -1
    cut_offset = 0
    for index, path in enumerate(segments):
        records, _valid_bytes, seg_corruption = _scan_segment(
            path, skip_at_or_below=decode_floor
        )
        for seq, end, payload in records:
            if seq is None:
                # A CRC-failed record with intact framing: its true seq is
                # unknowable, so treat it exactly like other damage — the
                # scan may only resume at a record the anchor proves loses
                # nothing (directly contiguous, or a covered jump).
                pending = f"segment {path.name}: record CRC mismatch"
                continue
            covered_jump = seq > last_seq + 1 and seq - 1 <= anchor_seq
            if seq == last_seq + 1 or covered_jump:
                if covered_jump or pending is not None:
                    covered = True
                pending = None
                if payload is not None:
                    kept.append((seq, payload))
                last_seq = seq
                cut_index, cut_offset = index, end
            else:
                # Unrecoverable: the missing records reach past the anchor,
                # and every later seq is higher still — nothing after this
                # point can ever rejoin the history.
                stopped = (
                    f"segment {path.name}: batch seq {seq} breaks the "
                    f"contiguous sequence after {last_seq}"
                )
                break
        if stopped is not None:
            break
        if seg_corruption is not None:
            # The rest of this segment is unreadable; a later segment may
            # still resume if the lost records are covered by the anchor.
            pending = seg_corruption
    return _DirectoryScan(
        records=kept,
        last_seq=last_seq,
        corruption=stopped if stopped is not None else pending,
        covered_gap=covered,
        cut_index=cut_index,
        cut_offset=cut_offset,
        segments=segments,
    )


def read_wal(
    directory: str | Path,
    strict: bool = False,
    anchor_seq: int = 0,
    decode: bool = True,
) -> WalScan:
    """Scan a WAL directory into its durable batch sequence.

    Records must carry contiguous sequence numbers from 1; the scan stops
    at the first torn, corrupt or out-of-sequence record (a gap means a
    lost segment, not just a torn tail) — everything before it is the
    durable prefix.  ``anchor_seq`` is the WAL position the newest
    checkpoint folds in: records at or below it are CRC-verified but not
    decoded or returned, and damage confined to them is *skipped* rather
    than fatal (``covered_gap`` reports it), so a bit flip in long-folded
    history can never cost the valid suffix.  ``strict=True`` raises
    :class:`~repro.errors.WalCorruptionError` instead of tolerating a cut.
    ``decode=False`` keeps no payloads — ``batches`` comes back empty but
    ``last_seq`` / ``truncated`` / ``covered_gap`` are exact, for callers
    that need only the durable tip, not the contents.  Payloads that are
    kept decode lazily, batch by batch, in :meth:`WalScan.suffix`.
    A missing directory reads as an empty log.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return WalScan()
    scan = _scan_directory(directory, anchor_seq, decode=decode)
    result = WalScan(
        records=scan.records,
        truncated=scan.corruption is not None,
        corruption=scan.corruption,
        covered_gap=scan.covered_gap,
        last_seq=scan.last_seq,
    )
    if result.truncated and strict:
        raise WalCorruptionError(result.corruption)
    return result


class WriteAheadLog:
    """An append-only, CRC-checksummed, segment-rotated mutation log.

    Parameters
    ----------
    directory:
        Where segment files live; created if missing.  Opening over an
        existing log repairs any torn tail and resumes the batch sequence
        after the last durable record.
    segment_bytes:
        Rotation threshold: a segment that reaches this size is closed and
        a fresh one started (checked after each record is written).
    fsync:
        Also ``os.fsync`` on every append.  Off by default: the tests and
        benchmarks model crash-at-batch-boundary, and the simulated-device
        repo convention is to keep timing deterministic.
    anchor_seq:
        The WAL position the newest checkpoint folds in (0 when no
        checkpoint exists).  Tail repair never cuts at damage confined to
        records at or below the anchor — a bit flip in long-checkpointed
        history must not destroy the valid suffix behind it.

    The log is thread-safe: ``append`` / ``tail`` / ``scan`` / ``prune`` /
    ``close`` serialise on one internal lock, so a reader shipping the
    tail (replication catch-up) can never interleave with a writer's
    record.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        anchor_seq: int = 0,
    ) -> None:
        if segment_bytes < len(_FILE_HEADER) + 1:
            raise DurabilityError("segment_bytes must be positive")
        if anchor_seq < 0:
            raise DurabilityError("anchor_seq must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.anchor_seq = anchor_seq
        self.stats = WalStats()
        # Writers serialise on the engine's mutation lock, but readers
        # (replication catch-up tails) may arrive on any thread — every
        # state-touching method below takes this lock.
        self._lock = threading.Lock()
        self._closed = False
        self._next_seq = self._repair_tail() + 1
        existing = _segments(self.directory)
        self._segment_index = _segment_index(existing[-1]) + 1 if existing else 1
        self._handle: io.BufferedWriter | None = None
        self._segment_size = 0

    # -- open-time tail repair ---------------------------------------------
    def _repair_tail(self) -> int:
        """Truncate any torn tail; return the last durable batch seq.

        Unresolved damage (a torn tail, or a gap reaching past the anchor)
        ends the durable prefix: the segment holding the last accepted
        record is physically truncated right after it and every later
        segment is deleted, so a reader and a writer agree on exactly
        where the log ends.  Damage *covered* by the anchor is left in
        place — the records behind it are still part of the history.
        """
        scan = _scan_directory(self.directory, self.anchor_seq, decode=False)
        if scan.corruption is not None:
            self.stats.tail_repaired = True
            if scan.cut_index < 0:
                doomed = scan.segments
            else:
                cut = scan.segments[scan.cut_index]
                with cut.open("r+b") as handle:
                    handle.truncate(max(scan.cut_offset, len(_FILE_HEADER)))
                doomed = scan.segments[scan.cut_index + 1 :]
            for path in doomed:
                path.unlink()
        # Never resume below the anchor: when damage or pruning swallowed
        # the records up to it, the checkpoint still folds their seqs in —
        # reusing one would make the next acknowledged batch read as
        # already-folded history and silently vanish from every recovery.
        return max(scan.last_seq, self.anchor_seq)

    # -- appending ----------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Seq of the newest batch on disk (every appended batch is)."""
        return self._next_seq - 1

    @property
    def num_segments(self) -> int:
        return len(_segments(self.directory))

    def append(self, mutations: Sequence[Mutation]) -> int:
        """Log one batch: encode its record, write it and flush it.

        Returns the batch's sequence number.  The batch is on disk when
        this returns, so an acknowledged batch survives a crash.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError("write-ahead log is closed")
            if not mutations:
                raise DurabilityError("refusing to log an empty mutation batch")
            seq = self._next_seq
            record = _encode_record(seq, mutations)
            try:
                self.flush(record)
            except BaseException:
                # A failed write or fsync may leave part or all of this
                # record in the segment.  Reusing its seq would break the
                # sequence and tail repair would cut every later
                # acknowledged batch, so the log takes no further appends;
                # reopening it repairs the tail.
                self._closed = True
                raise
            self._next_seq += 1
            self.stats.batches_appended += 1
            self.stats.mutations_appended += len(mutations)
            _W_APPENDS.inc()
            return seq

    def flush(self, record: bytes) -> None:
        """Write one encoded record to the current segment, durably.

        The write step of :meth:`append`, which calls it under the log's
        lock: write, flush, ``os.fsync`` with ``fsync=True``, then rotate
        a segment that reached ``segment_bytes``.
        """
        flush_start = time.perf_counter()
        handle = self._current_handle()
        handle.write(record)
        self._segment_size += len(record)
        self.stats.bytes_written += len(record)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        _W_FSYNC.observe((time.perf_counter() - flush_start) * 1000.0)
        self.stats.flushes += 1
        if self._segment_size >= self.segment_bytes:
            self._rotate()

    def _current_handle(self) -> io.BufferedWriter:
        if self._handle is None:
            path = self.directory / _segment_name(self._segment_index)
            self._handle = path.open("wb")
            self._handle.write(_FILE_HEADER)
            self._segment_size = len(_FILE_HEADER)
            self.stats.bytes_written += len(_FILE_HEADER)
            self.stats.segments_created += 1
        return self._handle

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._segment_index += 1
        self._segment_size = 0
        _W_ROTATIONS.inc()

    # -- reading back --------------------------------------------------------
    def scan(self, strict: bool = False) -> WalScan:
        """The batches currently on disk."""
        with self._lock:
            return read_wal(self.directory, strict=strict, anchor_seq=self.anchor_seq)

    # -- shipping ------------------------------------------------------------
    def tail(self, after_seq: int) -> Iterator[tuple[int, list[Mutation]]]:
        """The ``(seq, batch)`` pairs after ``after_seq`` — the WAL-shipping read.

        This is the catch-up half of replication: a follower at epoch ``E``
        asks for ``tail(E)`` and replays the returned batches in order.
        Every acknowledged batch is already on disk, so the suffix reaches
        the tip.  Live shipping — batches published *after* this call — is
        the service's epoch listeners' job
        (:meth:`~repro.service.ShardedEngine.add_epoch_listener`).
        """
        return self.scan().suffix(after_seq)

    # -- reclamation ---------------------------------------------------------
    def prune(self, up_to_seq: int) -> int:
        """Delete leading whole segments fully folded into a checkpoint.

        A segment qualifies when every record it holds has
        ``seq <= up_to_seq`` (the WAL position a *kept* checkpoint
        records); deletion stops at the first segment that does not.
        Returns the number of segments removed and raises the log's own
        ``anchor_seq`` so its scans keep accepting the now-leading gap.

        Prune against the **oldest** checkpoint you intend to keep:
        time-travel to epochs below a pruned position becomes impossible
        (and fails loudly at recovery, never silently).
        """
        if up_to_seq < 0:
            raise DurabilityError("up_to_seq must be >= 0")
        with self._lock:
            removed = 0
            current = (
                self.directory / _segment_name(self._segment_index)
                if self._handle is not None
                else None
            )
            for path in _segments(self.directory):
                if path == current:
                    break  # never unlink the open segment under the writer
                records, _valid_bytes, corruption = _scan_segment(
                    path, skip_at_or_below=up_to_seq
                )
                # A CRC-failed record's true seq is unknowable, so a damaged
                # segment is never provably folded in — keep it.
                if (
                    corruption is not None
                    or not records
                    or any(seq is None for seq, _end, _payload in records)
                    or records[-1][0] > up_to_seq
                ):
                    break
                path.unlink()
                removed += 1
            if removed:
                self.anchor_seq = max(self.anchor_seq, up_to_seq)
            return removed

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the file handle; later appends raise (idempotent)."""
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Checkpoints: epoch-stamped snapshots of an engine's object set.

A checkpoint materialises the full dataset at one epoch so recovery can
skip the WAL prefix before it.  Objects are written in the Hilbert-packed
page layout of :class:`~repro.storage.object_store.ObjectStore` — sorted
along the Hilbert curve of their AABB centres and chunked into
fixed-capacity pages — so a checkpoint is the same clustering the paged
structures rebuild from, one JSON line per page.

Each checkpoint is a directory ``ckpt-<epoch>/`` holding one data file and
``manifest.json``; the manifest records the epoch, the WAL position the
snapshot covers (``wal_seq``: every logged batch with a sequence number at
or below it is already folded in), the shard spec the engine ran with, and
a CRC of the data file.  Two data formats coexist, versioned by the
manifest's ``format_version``:

* **v1** (``objects.jsonl``) — one JSON line per page; the original
  format, still readable and writable (``format="json"``) so checkpoint
  directories from earlier releases recover unchanged.
* **v2** (``columns.bin``, the default) — a binary structure-of-arrays
  dump of the arena columns (kind, uid, AABB bounds, segment endpoints /
  radius / provenance) plus the page-length vector, little-endian.  Readers
  that predate v2 reject the manifest with
  :class:`~repro.errors.CheckpointMismatchError`, so their newest-valid
  lookup falls back to an older v1 checkpoint instead of misreading.

Atomicity by rename: both files are written into ``ckpt-<epoch>.tmp`` and
the directory is renamed into place as the commit point.  A crash mid-
checkpoint leaves only the ``.tmp`` directory, which every reader ignores
— the half-written snapshot simply never happened.  Validation failures
(CRC or object-count mismatch) raise
:class:`~repro.errors.CheckpointMismatchError`; the newest-valid lookup
skips such checkpoints and falls back to an older one.
"""

from __future__ import annotations

import json
import shutil
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.durability.serde import decode_object, encode_object
from repro.errors import CheckpointMismatchError, DurabilityError
from repro.geometry.aabb import AABB
from repro.geometry.segment import Segment
from repro.geometry.vec import Vec3
from repro.objects import BoxObject, SpatialObject
from repro.storage.arena import KIND_BOX, KIND_SEGMENT, ColumnarArena
from repro.storage.object_store import ObjectStore
from repro.storage.page import DEFAULT_PAGE_BYTES, OBJECT_BYTES

__all__ = [
    "CheckpointManifest",
    "write_checkpoint",
    "load_checkpoint",
    "read_manifest",
    "list_checkpoints",
    "latest_checkpoint",
    "latest_manifest",
]

_FORMAT_JSON = 1
_FORMAT_BINARY = 2
_PREFIX = "ckpt-"
_TMP_SUFFIX = ".tmp"
_DATA_FILE_JSON = "objects.jsonl"
_DATA_FILE_BINARY = "columns.bin"
_DATA_FILE_OF = {_FORMAT_JSON: _DATA_FILE_JSON, _FORMAT_BINARY: _DATA_FILE_BINARY}
_MANIFEST_FILE = "manifest.json"

#: v2 binary layout: magic, then ``<num_rows, num_pages>``, then the page
#: length vector, then one fixed-width record per row (kind, uid, 6 bounds,
#: 3+3 endpoint coords, radius, neuron/branch/order), all little-endian.
_BIN_MAGIC = b"RPRCOL2\n"
_BIN_HEADER = struct.Struct("<QQ")
_BIN_PAGE_LEN = struct.Struct("<Q")
_BIN_ROW = struct.Struct("<qq13dqqq")


@dataclass(frozen=True)
class CheckpointManifest:
    """What a checkpoint claims about itself (validated against the data)."""

    format_version: int
    epoch: int
    wal_seq: int  # every WAL batch with seq <= this is folded into the data
    num_objects: int
    num_pages: int
    page_capacity: int
    num_shards: int | None  # the sharded service's tiling; None for one engine
    data_crc32: int

    def as_json(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_json(record: dict[str, Any]) -> "CheckpointManifest":
        try:
            return CheckpointManifest(
                format_version=int(record["format_version"]),
                epoch=int(record["epoch"]),
                wal_seq=int(record["wal_seq"]),
                num_objects=int(record["num_objects"]),
                num_pages=int(record["num_pages"]),
                page_capacity=int(record["page_capacity"]),
                num_shards=(
                    None if record["num_shards"] is None else int(record["num_shards"])
                ),
                data_crc32=int(record["data_crc32"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointMismatchError(f"malformed checkpoint manifest: {error}") from error


def _checkpoint_dirname(epoch: int) -> str:
    return f"{_PREFIX}{epoch:010d}"


def write_checkpoint(
    root: str | Path,
    objects: Sequence[SpatialObject] | ColumnarArena,
    epoch: int,
    wal_seq: int,
    num_shards: int | None = None,
    page_capacity: int | None = None,
    format: str = "binary",
) -> Path:
    """Write one atomic checkpoint under ``root``; return its directory.

    ``objects`` may be a plain object sequence or a
    :class:`~repro.storage.arena.ColumnarArena` (columns are dumped without
    materializing objects).  The dataset must be non-empty (the engines are
    defined over non-empty datasets).  ``format`` selects the data layout:
    ``"binary"`` (v2 columnar, the default) or ``"json"`` (the v1 per-page
    JSON lines format).  Re-checkpointing an epoch that already exists and
    validates is a no-op returning the existing directory.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if epoch < 0 or wal_seq < 0:
        raise DurabilityError("checkpoint epoch and wal_seq must be >= 0")
    if not len(objects):
        raise DurabilityError("cannot checkpoint an empty dataset")
    if format not in ("binary", "json"):
        raise DurabilityError(f"unknown checkpoint format {format!r}")
    if page_capacity is None:
        page_capacity = DEFAULT_PAGE_BYTES // OBJECT_BYTES

    final = root / _checkpoint_dirname(epoch)
    if final.exists():
        try:
            load_checkpoint(final)
            return final
        except CheckpointMismatchError:
            shutil.rmtree(final)  # replace a checkpoint that failed validation

    # Hilbert-packed layout: the ObjectStore's page clustering is the
    # at-rest order for both formats.
    store = ObjectStore(objects, page_capacity=page_capacity)
    arena = objects if isinstance(objects, ColumnarArena) else None
    if format == "json":
        version = _FORMAT_JSON
        data = _encode_json_pages(store)
    else:
        version = _FORMAT_BINARY
        data = _encode_binary_columns(store, arena)

    manifest = CheckpointManifest(
        format_version=version,
        epoch=epoch,
        wal_seq=wal_seq,
        num_objects=store.num_objects,
        num_pages=store.num_pages,
        page_capacity=page_capacity,
        num_shards=num_shards,
        data_crc32=zlib.crc32(data),
    )

    tmp = root / (_checkpoint_dirname(epoch) + _TMP_SUFFIX)
    if tmp.exists():
        shutil.rmtree(tmp)  # leftover from a crashed writer
    tmp.mkdir()
    (tmp / _DATA_FILE_OF[version]).write_bytes(data)
    (tmp / _MANIFEST_FILE).write_text(
        json.dumps(manifest.as_json(), indent=2) + "\n", encoding="utf-8"
    )
    tmp.rename(final)  # the commit point
    return final


def _encode_json_pages(store: ObjectStore) -> bytes:
    """The v1 data payload: one JSON line per page."""
    lines: list[str] = []
    for page in store.pages():
        encoded = [encode_object(obj) for obj in store.objects_on_page(page.page_id)]
        lines.append(
            json.dumps({"page": page.page_id, "objects": encoded}, separators=(",", ":"))
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _binary_row(obj: SpatialObject) -> tuple:
    if isinstance(obj, Segment):
        return (
            KIND_SEGMENT,
            obj.uid,
            *obj.aabb.bounds(),
            obj.p0.x,
            obj.p0.y,
            obj.p0.z,
            obj.p1.x,
            obj.p1.y,
            obj.p1.z,
            obj.radius,
            obj.neuron_id,
            obj.branch_id,
            obj.order,
        )
    if isinstance(obj, BoxObject):
        return (KIND_BOX, obj.uid, *obj.box.bounds(), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1, -1, -1)
    raise DurabilityError(f"cannot checkpoint object of type {type(obj).__name__}")


def _encode_binary_columns(store: ObjectStore, arena: ColumnarArena | None) -> bytes:
    """The v2 data payload: page-length vector plus fixed-width column rows."""
    pages = store.pages()
    out = bytearray(_BIN_MAGIC)
    out += _BIN_HEADER.pack(store.num_objects, len(pages))
    for page in pages:
        out += _BIN_PAGE_LEN.pack(page.num_objects)
    for page in pages:
        if arena is not None:
            for row in arena.rows_for(page.object_uids):
                kind = arena.kinds[row]
                if kind not in (KIND_BOX, KIND_SEGMENT):
                    out += _BIN_ROW.pack(*_binary_row(arena.materialize(row)))
                    continue
                out += _BIN_ROW.pack(
                    kind,
                    arena.uids[row],
                    *arena.bounds[row],
                    *arena.p0[row],
                    *arena.p1[row],
                    arena.radius[row],
                    arena.neuron[row],
                    arena.branch[row],
                    arena.order[row],
                )
        else:
            for obj in store.objects_on_page(page.page_id):
                out += _BIN_ROW.pack(*_binary_row(obj))
    return bytes(out)


def _decode_binary_columns(data: bytes, name: str) -> list[SpatialObject]:
    """Decode a v2 payload back into objects (page order preserved)."""
    if not data.startswith(_BIN_MAGIC):
        raise CheckpointMismatchError(f"checkpoint {name} binary data has a bad magic")
    offset = len(_BIN_MAGIC)
    try:
        num_rows, num_pages = _BIN_HEADER.unpack_from(data, offset)
        offset += _BIN_HEADER.size
        page_lens = [
            _BIN_PAGE_LEN.unpack_from(data, offset + i * _BIN_PAGE_LEN.size)[0]
            for i in range(num_pages)
        ]
        offset += num_pages * _BIN_PAGE_LEN.size
        expected = offset + num_rows * _BIN_ROW.size
        if sum(page_lens) != num_rows or len(data) != expected:
            raise CheckpointMismatchError(
                f"checkpoint {name} binary data is truncated or misdeclared"
            )
        objects: list[SpatialObject] = []
        for fields in _BIN_ROW.iter_unpack(data[offset:]):
            kind, uid = fields[0], fields[1]
            if kind == KIND_SEGMENT:
                objects.append(
                    Segment(
                        uid=uid,
                        p0=Vec3(fields[8], fields[9], fields[10]),
                        p1=Vec3(fields[11], fields[12], fields[13]),
                        radius=fields[14],
                        neuron_id=fields[15],
                        branch_id=fields[16],
                        order=fields[17],
                    )
                )
            elif kind == KIND_BOX:
                objects.append(BoxObject(uid=uid, box=AABB(*fields[2:8])))
            else:
                raise CheckpointMismatchError(
                    f"checkpoint {name} holds unknown row kind {kind}"
                )
    except struct.error as error:
        raise CheckpointMismatchError(
            f"checkpoint {name} binary data is undecodable: {error}"
        ) from error
    return objects


def _validated_manifest(path: Path) -> tuple[CheckpointManifest, bytes]:
    """Read one checkpoint's manifest and data bytes, validating the CRC."""
    manifest_path = path / _MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointMismatchError(f"checkpoint {path.name} has no manifest")
    try:
        manifest = CheckpointManifest.from_json(
            json.loads(manifest_path.read_text(encoding="utf-8"))
        )
    except ValueError as error:
        raise CheckpointMismatchError(
            f"checkpoint {path.name} manifest is not valid JSON: {error}"
        ) from error
    if manifest.format_version not in _DATA_FILE_OF:
        raise CheckpointMismatchError(
            f"checkpoint {path.name} has unsupported format version "
            f"{manifest.format_version}"
        )
    data_path = path / _DATA_FILE_OF[manifest.format_version]
    if not data_path.is_file():
        raise CheckpointMismatchError(f"checkpoint {path.name} has no data file")
    data = data_path.read_bytes()
    if zlib.crc32(data) != manifest.data_crc32:
        raise CheckpointMismatchError(
            f"checkpoint {path.name} data CRC mismatch (corrupt or half-written)"
        )
    return manifest, data


def read_manifest(path: str | Path) -> CheckpointManifest:
    """Validate one checkpoint and return its manifest without decoding objects.

    Checks everything :func:`load_checkpoint` checks *except* the object
    decode and the object-count cross-check — the data CRC must match,
    but a manifest whose count field disagrees with its own data still
    passes here while a full load rejects it.  Use it for guard checks
    that need a checkpoint's position, not its contents, and make the
    caller fail loudly if a later full load lands on a different
    checkpoint (see :func:`~repro.durability.recovery.open_durable`'s tip
    cross-check).
    """
    manifest, _data = _validated_manifest(Path(path))
    return manifest


def load_checkpoint(
    path: str | Path,
) -> tuple[list[SpatialObject], CheckpointManifest]:
    """Load and validate one checkpoint directory.

    Raises :class:`~repro.errors.CheckpointMismatchError` when the manifest
    or data file is missing, the CRC does not match, or the object count
    disagrees with the manifest.
    """
    path = Path(path)
    manifest, data = _validated_manifest(path)
    if manifest.format_version == _FORMAT_BINARY:
        objects = _decode_binary_columns(data, path.name)
    else:
        objects = []
        try:
            for line in data.decode("utf-8").splitlines():
                if not line:
                    continue
                record = json.loads(line)
                objects.extend(decode_object(entry) for entry in record["objects"])
        except (ValueError, KeyError, TypeError, DurabilityError) as error:
            raise CheckpointMismatchError(
                f"checkpoint {path.name} data is undecodable: {error}"
            ) from error
    if len(objects) != manifest.num_objects:
        raise CheckpointMismatchError(
            f"checkpoint {path.name} holds {len(objects)} objects, manifest "
            f"claims {manifest.num_objects}"
        )
    return objects, manifest


def list_checkpoints(root: str | Path) -> list[tuple[int, Path]]:
    """``(epoch, path)`` of every committed checkpoint, oldest first.

    Half-written ``.tmp`` directories (rename never happened) are ignored
    — they are the crash-mid-checkpoint case, not a checkpoint.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    found: list[tuple[int, Path]] = []
    for path in root.iterdir():
        if not path.is_dir() or not path.name.startswith(_PREFIX):
            continue
        if path.name.endswith(_TMP_SUFFIX):
            continue
        try:
            epoch = int(path.name[len(_PREFIX) :])
        except ValueError:
            continue
        found.append((epoch, path))
    return sorted(found)


def _newest_valid(root: str | Path, at_epoch: int | None, loader):
    """Apply ``loader`` to the newest candidate checkpoint that validates.

    One home for the candidate order and fallback policy: newest first
    (optionally bounded by ``at_epoch``), skipping checkpoints whose
    ``loader`` raises :class:`~repro.errors.CheckpointMismatchError`, and
    raising :class:`~repro.errors.DurabilityError` with every rejection
    reason when none survives.
    """
    candidates = [
        (epoch, path)
        for epoch, path in list_checkpoints(root)
        if at_epoch is None or epoch <= at_epoch
    ]
    if not candidates:
        bound = "" if at_epoch is None else f" at or below epoch {at_epoch}"
        raise DurabilityError(f"no checkpoint{bound} found under {root}")
    reasons: list[str] = []
    for _epoch, path in reversed(candidates):
        try:
            return loader(path)
        except CheckpointMismatchError as error:
            reasons.append(str(error))
    raise DurabilityError(
        "every candidate checkpoint failed validation: " + "; ".join(reasons)
    )


def latest_checkpoint(
    root: str | Path, at_epoch: int | None = None
) -> tuple[list[SpatialObject], CheckpointManifest]:
    """Load the newest checkpoint that validates (optionally ≤ ``at_epoch``).

    Checkpoints that fail validation are skipped in favour of older ones;
    if none survives, :class:`~repro.errors.DurabilityError` reports every
    rejection reason.
    """
    return _newest_valid(root, at_epoch, load_checkpoint)


def latest_manifest(
    root: str | Path, at_epoch: int | None = None
) -> CheckpointManifest:
    """The manifest of the newest checkpoint that validates, objects unread.

    Same candidate order and fallback as :func:`latest_checkpoint`, but
    only the manifest and data CRC are checked (:func:`read_manifest`) —
    cheap enough to answer "where is the newest checkpoint's WAL anchor?"
    before committing to a full load.
    """
    return _newest_valid(root, at_epoch, read_manifest)

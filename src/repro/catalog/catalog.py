"""The :class:`Catalog`: named datasets, tagged epochs, cross-dataset joins.

A catalog is a directory::

    <root>/
      catalog.json          names, tags, tombstones (repro.catalog.manifest)
      datasets/<name>/      one durable engine root each (wal/ + checkpoints/)

Each dataset is exactly the durability layout :func:`repro.create` /
:func:`repro.open` speak — the catalog adds *names* on top: a dataset is
addressable as ``"circuit"``, a pinned epoch as ``"circuit@v1"``, and
every open goes through the same front-door constructors, so anything
that works on a bare durability directory works on a catalogued one.

Tags pin epochs.  :meth:`Catalog.tag` verifies the epoch is actually
reachable (a checkpoint at or below it plus the durable WAL suffix) before
recording it, and :meth:`Catalog.prune` treats every tagged epoch as
pinned: checkpoints a tag needs survive, and the WAL is only pruned below
the oldest pinned fold position — so a tag taken today still opens after
any amount of compaction and reclamation.

Cross-dataset joins open both sides read-only at their resolved epochs
and run the ordinary :class:`~repro.engine.SpatialJoin` executors with
explicit sides — one arena builds, the other probes — on one
:class:`~repro.engine.SpatialEngine`.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.catalog.lineage import LineageRecord, dataset_lineage
from repro.catalog.manifest import MANIFEST_FILE, CatalogManifest, check_name
from repro.durability.checkpoint import latest_manifest, list_checkpoints
from repro.durability.recovery import checkpoints_path, wal_path
from repro.durability.wal import WriteAheadLog, read_wal
from repro.engine.engine import SpatialEngine
from repro.engine.queries import SpatialJoin
from repro.errors import CatalogError, DurabilityError
from repro.obs import trace
from repro.obs.metrics import LATENCY_BUCKETS_MS, global_registry
from repro.objects import SpatialObject

_C_OPS = global_registry().counter(
    "repro_catalog_ops_total",
    "Catalog operations by kind.",
    label_names=("op",),
)
_C_RESOLVE_MS = global_registry().histogram(
    "repro_catalog_resolve_ms",
    "Wall time recovering a dataset's object set at a pinned epoch.",
    buckets=LATENCY_BUCKETS_MS,
)

__all__ = [
    "Catalog",
    "CrossJoinResult",
    "DatasetDiff",
    "DatasetInfo",
    "PruneReport",
    "ResolvedRef",
    "parse_ref",
]

_DATASETS_DIR = "datasets"


@dataclass(frozen=True)
class ResolvedRef:
    """One parsed-and-resolved dataset reference: ``name[@tag]`` → epoch."""

    name: str
    tag: str | None
    epoch: int | None  # None = the durable tip (no time travel)

    def label(self) -> str:
        return self.name if self.tag is None else f"{self.name}@{self.tag}"


@dataclass(frozen=True)
class DatasetInfo:
    """One catalog listing row (everything here is read off disk)."""

    name: str
    epoch: int  # durable tip
    num_objects: int  # of the newest checkpoint
    num_shards: int | None
    checkpoints: int
    tags: dict[str, int]

    def describe(self) -> str:
        tags = (
            ", ".join(f"{t}={e}" for t, e in sorted(self.tags.items())) or "-"
        )
        return (
            f"{self.name}: epoch {self.epoch}, ~{self.num_objects} objects, "
            f"{self.checkpoints} checkpoints, tags [{tags}]"
        )


@dataclass(frozen=True)
class DatasetDiff:
    """uid-level delta between two resolved epochs (from arena snapshots)."""

    a: ResolvedRef
    b: ResolvedRef
    epoch_a: int
    epoch_b: int
    added: tuple[int, ...]  # live in b, not in a
    deleted: tuple[int, ...]  # live in a, not in b
    moved: tuple[int, ...]  # live in both, bounds differ
    unchanged: int

    def render(self) -> str:
        lines = [
            f"diff {self.a.label()} (epoch {self.epoch_a}) .. "
            f"{self.b.label()} (epoch {self.epoch_b}):",
            f"  +{len(self.added)} added, -{len(self.deleted)} deleted, "
            f"~{len(self.moved)} moved, {self.unchanged} unchanged",
        ]
        for label, uids in (
            ("added", self.added),
            ("deleted", self.deleted),
            ("moved", self.moved),
        ):
            if uids:
                shown = ", ".join(str(u) for u in uids[:16])
                more = f", ... ({len(uids)} total)" if len(uids) > 16 else ""
                lines.append(f"  {label}: {shown}{more}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CrossJoinResult:
    """A cross-dataset join answer plus the provenance of both sides."""

    a: ResolvedRef
    b: ResolvedRef
    epoch_a: int
    epoch_b: int
    eps: float
    strategy: str
    pairs: tuple[tuple[int, int], ...]
    comparisons: int
    elapsed_ms: float

    def describe(self) -> str:
        return (
            f"join {self.a.label()} (epoch {self.epoch_a}, build) x "
            f"{self.b.label()} (epoch {self.epoch_b}, probe) eps={self.eps:g} "
            f"via {self.strategy}: {len(self.pairs)} pairs, "
            f"{self.comparisons} comparisons, {self.elapsed_ms:.2f} ms"
        )


@dataclass(frozen=True)
class PruneReport:
    """What :meth:`Catalog.prune` reclaimed and what the tags pinned."""

    name: str
    kept_checkpoints: tuple[int, ...]
    removed_checkpoints: tuple[int, ...]
    wal_segments_removed: int
    wal_pin_seq: int  # the fold position below which the WAL was reclaimed

    def describe(self) -> str:
        return (
            f"prune {self.name}: kept checkpoints "
            f"{list(self.kept_checkpoints)}, removed "
            f"{list(self.removed_checkpoints)}, reclaimed "
            f"{self.wal_segments_removed} WAL segments below seq "
            f"{self.wal_pin_seq}"
        )


def parse_ref(ref: Any) -> tuple[str, str | None]:
    """``"name"``, ``"name@tag"`` or ``(name, tag)`` → ``(name, tag)``."""
    if isinstance(ref, str):
        name, sep, tag = ref.partition("@")
        return check_name(name), (check_name(tag, "tag") if sep else None)
    if isinstance(ref, (tuple, list)) and len(ref) == 2:
        name, tag = ref
        return check_name(name), (None if tag is None else check_name(tag, "tag"))
    raise CatalogError(
        f"cannot parse dataset reference {ref!r}: use 'name', 'name@tag' "
        "or (name, tag)"
    )


class Catalog:
    """Named, tagged, lineage-tracked datasets rooted in one directory."""

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        manifest_path = self.root / MANIFEST_FILE
        if not create and not manifest_path.is_file():
            raise CatalogError(f"{self.root} holds no catalog (no {MANIFEST_FILE})")
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _DATASETS_DIR).mkdir(exist_ok=True)
        if not manifest_path.is_file():
            CatalogManifest().store(manifest_path)
        else:
            CatalogManifest.load(manifest_path)  # fail fast on corruption

    # -- manifest plumbing -------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_FILE

    def _read(self) -> CatalogManifest:
        return CatalogManifest.load(self._manifest_path)

    def _mutate(self, apply) -> Any:
        """Read-modify-write the on-disk manifest (tombstone-safe update)."""
        manifest = self._read()
        outcome = apply(manifest)
        manifest.revision += 1
        manifest.store(self._manifest_path)
        return outcome

    # -- datasets ----------------------------------------------------------
    def dataset_root(self, name: str) -> Path:
        """The durability directory a dataset name maps to."""
        self._read().dataset(check_name(name))
        return self.root / _DATASETS_DIR / name

    def names(self) -> list[str]:
        return sorted(self._read().datasets)

    def create(
        self,
        name: str,
        objects: Sequence[SpatialObject],
        *,
        sharded: bool = False,
        num_shards: int | None = None,
        wal_kwargs: dict[str, Any] | None = None,
        **engine_kwargs: Any,
    ) -> Any:
        """Register ``name`` and build its durable engine via :func:`repro.create`."""
        import repro

        check_name(name)
        _C_OPS.labels(op="create").inc()
        root = self.root / _DATASETS_DIR / name
        if list_checkpoints(checkpoints_path(root)):
            raise CatalogError(
                f"{root} already holds durable state; register it by opening "
                "the catalog that created it"
            )
        self._mutate(lambda m: m.add_dataset(name))
        try:
            return repro.create(
                objects,
                root,
                sharded=sharded,
                num_shards=num_shards,
                wal_kwargs=wal_kwargs,
                **engine_kwargs,
            )
        except BaseException:
            # Keep names and state in step: a failed create leaves no entry.
            self._mutate(lambda m: m.datasets.pop(name, None))
            shutil.rmtree(root, ignore_errors=True)
            raise

    def open(
        self,
        ref: Any,
        *,
        at_epoch: int | None = None,
        sharded: bool = False,
        durable: bool | None = None,
        **engine_kwargs: Any,
    ) -> Any:
        """Open a dataset by reference, through :func:`repro.open`.

        A bare name opens writable (WAL reattached) by default; a
        ``name@tag`` reference or an explicit ``at_epoch`` opens read-only
        at that epoch (``durable=True`` with a pinned epoch is refused —
        the same rule as :func:`repro.open`, with the tag resolved first).
        """
        import repro

        resolved = self.resolve(ref, at_epoch=at_epoch)
        root = self.dataset_root(resolved.name)
        if resolved.epoch is not None:
            if durable:
                raise CatalogError(
                    f"{resolved.label()} pins epoch {resolved.epoch}: "
                    "tagged opens are read-only; pass durable=False "
                    "(the default for tagged references)"
                )
            durable = False
        if durable is None:
            durable = True
        return repro.open(
            root,
            sharded=sharded,
            durable=durable,
            at_epoch=resolved.epoch,
            **engine_kwargs,
        )

    def describe_dataset(self, name: str) -> DatasetInfo:
        root = self.dataset_root(name)
        manifest = latest_manifest(checkpoints_path(root))
        scan = read_wal(wal_path(root), anchor_seq=manifest.wal_seq, decode=False)
        return DatasetInfo(
            name=name,
            epoch=max(scan.last_seq, manifest.wal_seq),
            num_objects=manifest.num_objects,
            num_shards=manifest.num_shards,
            checkpoints=len(list_checkpoints(checkpoints_path(root))),
            tags=self.tags(name),
        )

    def datasets(self) -> list[DatasetInfo]:
        return [self.describe_dataset(name) for name in self.names()]

    # -- tags --------------------------------------------------------------
    def tag(self, name: str, tag: str, epoch: int | None = None) -> int:
        """Pin ``tag`` to ``epoch`` (default: the durable tip); returns it.

        The epoch must be *reachable*: a validating checkpoint at or below
        it plus durable WAL batches up to it.  Unreachable pins are
        refused here rather than discovered at open time.
        """
        root = self.dataset_root(name)
        try:
            manifest = latest_manifest(
                checkpoints_path(root), at_epoch=epoch
            )
        except DurabilityError as error:
            raise CatalogError(
                f"cannot tag {name}@{tag}: {error}"
            ) from error
        scan = read_wal(wal_path(root), anchor_seq=manifest.wal_seq, decode=False)
        tip = max(scan.last_seq, manifest.wal_seq)
        if epoch is None:
            epoch = tip
        if not manifest.epoch <= epoch <= tip:
            raise CatalogError(
                f"cannot tag {name}@{tag} at epoch {epoch}: reachable epochs "
                f"run from checkpoint {manifest.epoch} to durable tip {tip}"
            )
        self._mutate(lambda m: m.set_tag(name, tag, epoch))
        _C_OPS.labels(op="tag").inc()
        return epoch

    def untag(self, name: str, tag: str) -> int:
        """Delete a tag (leaving a tombstone); returns the epoch it pinned."""
        self.dataset_root(name)
        _C_OPS.labels(op="untag").inc()
        return self._mutate(lambda m: m.drop_tag(name, tag))

    def tags(self, name: str) -> dict[str, int]:
        return dict(self._read().dataset(name)["tags"])

    def resolve(self, ref: Any, at_epoch: int | None = None) -> ResolvedRef:
        """Parse ``ref`` and resolve its tag to an epoch (``None`` = tip)."""
        name, tag = parse_ref(ref)
        if tag is not None and at_epoch is not None:
            raise CatalogError(
                f"{name}@{tag} already pins an epoch; at_epoch cannot override it"
            )
        epoch = at_epoch
        if tag is not None:
            epoch = self._read().tag_epoch(name, tag)
        return ResolvedRef(name=name, tag=tag, epoch=epoch)

    # -- lineage -----------------------------------------------------------
    def lineage(self, name: str, at_epoch: int | None = None) -> list[LineageRecord]:
        """Reconstructed per-epoch provenance (see :mod:`repro.catalog.lineage`)."""
        return dataset_lineage(self.dataset_root(name), at_epoch=at_epoch)

    # -- cross-dataset queries ---------------------------------------------
    def objects_at(self, ref: Any) -> tuple[tuple[SpatialObject, ...], int]:
        """The object set (and epoch) a reference resolves to, read-only."""
        return self._objects_at(self.resolve(ref))

    def _objects_at(self, resolved: ResolvedRef) -> tuple[tuple[SpatialObject, ...], int]:
        from repro.durability.recovery import recover_engine

        _C_OPS.labels(op="resolve").inc()
        started = time.perf_counter()
        with trace.span("catalog.resolve", dataset=resolved.name, epoch=resolved.epoch):
            recovery = recover_engine(
                self.dataset_root(resolved.name), at_epoch=resolved.epoch
            )
        _C_RESOLVE_MS.observe((time.perf_counter() - started) * 1000.0)
        return tuple(recovery.engine.objects), recovery.epoch

    def _snapshot_at(self, resolved: ResolvedRef):
        from repro.durability.recovery import recover_engine

        recovery = recover_engine(
            self.dataset_root(resolved.name), at_epoch=resolved.epoch
        )
        return recovery.engine.arena.snapshot(), recovery.epoch

    def diff(self, ref_a: Any, ref_b: Any) -> DatasetDiff:
        """uid-level adds/deletes/moves between two resolved epochs.

        Both sides are opened read-only at their epochs and compared
        through arena snapshots (uid → bounds); output ordering is
        deterministic (sorted uids), so a fixed seed diffs identically
        across runs and backends.
        """
        resolved_a = self.resolve(ref_a)
        resolved_b = self.resolve(ref_b)
        snap_a, epoch_a = self._snapshot_at(resolved_a)
        snap_b, epoch_b = self._snapshot_at(resolved_b)
        bounds_a = dict(zip(snap_a.uids, snap_a.bounds))
        bounds_b = dict(zip(snap_b.uids, snap_b.bounds))
        added = tuple(sorted(set(bounds_b) - set(bounds_a)))
        deleted = tuple(sorted(set(bounds_a) - set(bounds_b)))
        common = set(bounds_a) & set(bounds_b)
        moved = tuple(sorted(u for u in common if bounds_a[u] != bounds_b[u]))
        return DatasetDiff(
            a=resolved_a,
            b=resolved_b,
            epoch_a=epoch_a,
            epoch_b=epoch_b,
            added=added,
            deleted=deleted,
            moved=moved,
            unchanged=len(common) - len(moved),
        )

    def join(
        self,
        ref_a: Any,
        ref_b: Any,
        *,
        eps: float,
        strategy: str | None = None,
        refine: bool = False,
        **engine_kwargs: Any,
    ) -> CrossJoinResult:
        """Spatial distance join across two datasets at their pinned epochs.

        Side A builds, side B probes — the existing
        :class:`~repro.engine.SpatialJoin` executors with explicit sides
        drawn from two different arenas, run on one
        :class:`~repro.engine.SpatialEngine` built over side A.
        """
        resolved_a = self.resolve(ref_a)
        resolved_b = self.resolve(ref_b)
        side_a, epoch_a = self._objects_at(resolved_a)
        side_b, epoch_b = self._objects_at(resolved_b)
        query = SpatialJoin(
            eps=eps, side_a=side_a, side_b=side_b, strategy=strategy, refine=refine
        )
        result = SpatialEngine(list(side_a), **engine_kwargs).execute(query)
        stats = result.stats
        return CrossJoinResult(
            a=resolved_a,
            b=resolved_b,
            epoch_a=epoch_a,
            epoch_b=epoch_b,
            eps=eps,
            strategy=stats.strategy,
            # Canonical (uid_a, uid_b) sort: the engine payload keeps the
            # executor's emission order.
            pairs=tuple(sorted((int(a), int(b)) for a, b in result.payload)),
            comparisons=stats.comparisons,
            elapsed_ms=stats.elapsed_ms,
        )

    # -- reclamation (tag-aware) -------------------------------------------
    def prune(self, name: str) -> PruneReport:
        """Reclaim checkpoints and WAL segments no tag (and no tip) needs.

        Keeps the newest checkpoint plus, for every tag, the newest
        checkpoint at or below its epoch; removes the rest; then prunes
        leading WAL segments fully below the pin floor: the smallest
        ``wal_seq`` among the kept checkpoints that seed the tip's and
        each tag's open, so pruning can never strand a tag or the tip.
        Requires exclusive access to the dataset (no engine holding its
        WAL).
        """
        root = self.dataset_root(name)
        newest = latest_manifest(checkpoints_path(root))
        keep = {newest.epoch}
        anchors = [newest.wal_seq]
        for epoch in self.tags(name).values():
            manifest = latest_manifest(checkpoints_path(root), at_epoch=epoch)
            keep.add(manifest.epoch)
            anchors.append(manifest.wal_seq)
        removed: list[int] = []
        for epoch, path in list_checkpoints(checkpoints_path(root)):
            if epoch not in keep:
                shutil.rmtree(path)
                removed.append(epoch)
        floor = min(anchors)
        wal = WriteAheadLog(wal_path(root), anchor_seq=newest.wal_seq)
        try:
            segments_removed = wal.prune(floor)
        finally:
            wal.close()
        return PruneReport(
            name=name,
            kept_checkpoints=tuple(sorted(keep)),
            removed_checkpoints=tuple(sorted(removed)),
            wal_segments_removed=segments_removed,
            wal_pin_seq=floor,
        )

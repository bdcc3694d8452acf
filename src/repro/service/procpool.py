"""Process-pool shard execution over shared-memory arena publications.

The thread-pool fan-out of :class:`~repro.service.ShardedEngine` is
GIL-bound: shard subtasks are pure Python work, so four workers on four
shards still serialise on one interpreter.  This module is the escape
hatch — a :class:`ProcessShardExecutor` that

* **publishes** each shard's :class:`~repro.storage.arena.ColumnarArena`
  as one ``multiprocessing.shared_memory`` segment (fixed-width column
  rows behind an epoch-stamped header, see
  :meth:`ColumnarArena.pack_payload`),
* **maps** the segments zero-copy in worker processes, which decode the
  columns once per publication and cache a warm per-shard
  :class:`~repro.engine.SpatialEngine` keyed by segment name (the name
  carries the publication generation, so a republished shard invalidates
  naturally), and
* **fans out** range/knn/join/walk subtasks to those workers, returning
  plain ``concurrent.futures`` futures the service's existing deadline
  and merge plumbing consumes unchanged.

Safe publication and teardown
-----------------------------
Mutation batches republish only the touched shards' segments; untouched
shards carry their segment into the next publication.  The service swaps
publications under the exclusive side of its epoch gate, which every
query holds (shared) for its whole fan-out, so a superseded publication
has no reader left and is retired at once: its segments are unlinked as
soon as no live publication carries them.  A subtask abandoned by a
missed deadline that attaches after the unlink fails cleanly, and its
result was already discarded.  The *publishing* process owns every
segment's lifecycle.  Workers attach and immediately close their mapping
— they never unlink and never touch the resource tracker: the tracker
process (and its name cache, a set) is shared by the whole process tree
under both ``fork`` and ``spawn``, so a worker's attach-time registration
(CPython < 3.13 registers attaches too, bpo-39959) is an idempotent
duplicate of the parent's, and an explicit worker-side *unregister* would
delete the parent's claim and turn a crashed parent into a real leak.
:meth:`close` unlinks every segment the executor ever created — including
after SIGKILL'd workers, which cannot leak anything precisely because the
parent never delegated ownership; and if the parent itself dies before
``close``, the shared resource tracker reclaims the segments at shutdown.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import count
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from threading import Lock
from typing import Any, Sequence

from repro import kernels
from repro.engine.engine import SpatialEngine
from repro.engine.executors import run_join, timed
from repro.engine.queries import Query, SpatialJoin
from repro.errors import ServiceError
from repro.obs import trace
from repro.objects import SpatialObject
from repro.storage.arena import ColumnarArena

__all__ = ["ProcessShardExecutor", "SEGMENT_PREFIX", "active_segment_names"]

#: Every segment this module creates is named ``rpr-<token>-<shard>-<gen>``.
#: The prefix is what the CI leak check greps ``/dev/shm`` for.
SEGMENT_PREFIX = "rpr-"

_TOKENS = count(1)


def active_segment_names() -> list[str]:
    """Shared-memory segments of this module currently live on the host.

    Linux backs POSIX shared memory with ``/dev/shm``; on platforms
    without it the check degrades to "nothing observable" rather than
    failing.  Used by tests and the CI leak gate.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux hosts
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(SEGMENT_PREFIX)
    )


class _Segment:
    """One shard's published column block (parent-owned lifecycle)."""

    __slots__ = ("name", "stamp", "shm", "owners", "unlinked")

    def __init__(self, name: str, stamp: int, shm: SharedMemory) -> None:
        self.name = name
        self.stamp = stamp  # header epoch stamp workers verify on attach
        self.shm = shm
        self.owners = 1  # publications carrying this segment
        self.unlinked = False


class _Publication:
    """One epoch's segment set."""

    __slots__ = ("generation", "segments")

    def __init__(self, generation: int, segments: dict[int, _Segment]) -> None:
        self.generation = generation
        self.segments = segments  # shard_id -> _Segment


class ProcessShardExecutor:
    """Owns the worker pool, the segment registry and segment ownership counts.

    ``mp_start`` picks the multiprocessing start method: ``fork`` (the
    Linux default — workers inherit the imported modules, so the first
    task is cheap) or ``spawn`` (portable, required on macOS/Windows
    where ``fork`` is unavailable or unsafe; workers re-import, so the
    first task per worker pays an interpreter start).  Worker functions
    and task payloads are importable/picklable under both.
    """

    def __init__(
        self,
        max_workers: int,
        mp_start: str | None = None,
        engine_kwargs: dict[str, Any] | None = None,
    ) -> None:
        if mp_start is None:
            try:
                ctx = get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                ctx = get_context("spawn")
        else:
            try:
                ctx = get_context(mp_start)
            except ValueError as error:
                raise ServiceError(f"unknown multiprocessing start method: {error}")
        self._ctx = ctx
        self._max_workers = max(1, max_workers)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._token = f"{os.getpid():x}x{next(_TOKENS):x}"
        self._lock = Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._segments: dict[str, _Segment] = {}
        self._generation = 0
        self._closed = False

    # -- publication lifecycle ---------------------------------------------
    def publish(
        self,
        arenas: dict[int, ColumnarArena | None],
        previous: _Publication | None = None,
    ) -> _Publication:
        """Publish one epoch's shard set; ``None`` carries the old segment.

        Touched shards pack a fresh segment stamped with this publication's
        generation; untouched shards (``arena is None``) share the previous
        publication's segment, bumping its owner count.  The caller retires
        ``previous`` separately once the new view is visible.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            self._generation += 1
            generation = self._generation
            segments: dict[int, _Segment] = {}
            try:
                for shard_id, arena in arenas.items():
                    if arena is None:
                        if previous is None or shard_id not in previous.segments:
                            raise ServiceError(
                                f"no previous segment to carry for shard {shard_id}"
                            )
                        segment = previous.segments[shard_id]
                        segment.owners += 1
                        segments[shard_id] = segment
                    else:
                        segments[shard_id] = self._pack_segment(
                            shard_id, generation, arena
                        )
            except BaseException:
                # Publication failed part way: release everything it took.
                for segment in segments.values():
                    segment.owners -= 1
                    if segment.owners == 0:
                        self._unlink(segment)
                raise
            return _Publication(generation=generation, segments=segments)

    def _pack_segment(
        self, shard_id: int, generation: int, arena: ColumnarArena
    ) -> _Segment:
        payload = arena.pack_payload(epoch=generation)
        name = f"{SEGMENT_PREFIX}{self._token}-{shard_id}-{generation}"
        shm = SharedMemory(name=name, create=True, size=len(payload))
        shm.buf[: len(payload)] = payload
        segment = _Segment(name=name, stamp=generation, shm=shm)
        self._segments[name] = segment
        return segment

    def retire(self, publication: _Publication) -> None:
        """Drop a superseded publication (once); unlinks segments nothing carries."""
        with self._lock:
            for segment in publication.segments.values():
                segment.owners -= 1
                if segment.owners == 0:
                    self._unlink(segment)

    def _unlink(self, segment: _Segment) -> None:
        if segment.unlinked:
            return
        segment.unlinked = True
        self._segments.pop(segment.name, None)
        try:
            segment.shm.close()
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass

    # -- fan-out ------------------------------------------------------------
    def submit_query(
        self,
        publication: _Publication,
        shard_id: int,
        query: Query,
        backend: str,
        traced: bool = False,
    ) -> Future:
        """One shard subtask against the publication's mapped columns.

        With ``traced`` the worker captures a local span tree around the
        execution and ships it back pickled (``Span.to_dict``) as the
        result tuple's last element for the parent to re-parent.
        """
        segment = publication.segments[shard_id]
        return self._submit(
            _run_query_task,
            segment.name,
            segment.stamp,
            self._engine_kwargs,
            query,
            backend,
            traced,
        )

    def submit_join_chunk(
        self,
        strategy: str,
        side_a: Sequence[SpatialObject],
        chunk: Sequence[SpatialObject],
        query: SpatialJoin,
        backend: str,
        traced: bool = False,
    ) -> Future:
        """One probe-side join chunk (sides travel by pickle, not by shm)."""
        return self._submit(
            _run_join_task, strategy, side_a, chunk, query, backend, traced
        )

    def _submit(self, fn, *args) -> Future:
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            pool = self._pool
            if pool is None:
                pool = self._pool = self._make_pool()
        try:
            return pool.submit(fn, *args)
        except (BrokenProcessPool, RuntimeError) as error:
            # A SIGKILL'd worker breaks the whole pool.  Replace it once
            # and resubmit — the service stays usable, and the dead pool's
            # workers can leak nothing (segments are parent-owned).
            with self._lock:
                if self._closed:
                    raise ServiceError("service is closed") from error
                if self._pool is pool:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self._pool = self._make_pool()
                pool = self._pool
            return pool.submit(fn, *args)

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self._max_workers, mp_context=self._ctx)

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and unlink every segment ever created.

        Idempotent.  The registry sweep is the resource-tracker-aware
        backstop: even if a publication was never retired (or its workers
        were SIGKILL'd mid-task), every ``/dev/shm`` block this executor
        created is released here, because the parent alone owns them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
            self._pool = None
            leftovers = list(self._segments.values())
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            for segment in leftovers:
                self._unlink(segment)

    @property
    def closed(self) -> bool:
        return self._closed


# -- worker side --------------------------------------------------------------
#
# Everything below runs inside pool workers.  The engine cache is keyed by
# the segment name *minus* its generation suffix (one warm engine per
# shard per service); a republished shard arrives under a new name and
# simply replaces the stale entry.

_ENGINE_CACHE: dict[str, tuple[str, SpatialEngine]] = {}


def _attached_engine(
    seg_name: str, stamp: int, engine_kwargs: dict[str, Any]
) -> SpatialEngine:
    cache_key = seg_name.rsplit("-", 1)[0]
    cached = _ENGINE_CACHE.get(cache_key)
    if cached is not None and cached[0] == seg_name:
        return cached[1]
    try:
        shm = SharedMemory(name=seg_name)
    except FileNotFoundError as error:
        raise ServiceError(
            f"shared-memory publication {seg_name} is gone (superseded or closed)"
        ) from error
    try:
        found, arena = ColumnarArena.from_packed(shm.buf)
    finally:
        # Copy-decode then drop the mapping.  No unlink and no resource
        # tracker fiddling here: the tracker is shared with the parent,
        # whose unlink at retire/close time is the single release point.
        shm.close()
    if found != stamp:
        raise ServiceError(
            f"shared-memory publication {seg_name} has epoch stamp {found}, "
            f"expected {stamp}"
        )
    engine = SpatialEngine.from_arena(arena, **engine_kwargs)
    _ENGINE_CACHE[cache_key] = (seg_name, engine)
    return engine


def _run_query_task(
    seg_name: str,
    stamp: int,
    engine_kwargs: dict[str, Any],
    query: Query,
    backend: str,
    traced: bool = False,
):
    engine = _attached_engine(seg_name, stamp, engine_kwargs)
    with kernels.use_backend(backend):
        cpu_start = time.thread_time()
        if traced:
            # The parent's span objects cannot cross the process boundary;
            # capture a local trace and return it pickled for re-parenting.
            with trace.start_trace("shard.worker") as root:
                root.set(pid=os.getpid())
                result = engine.execute(query)
            span_dict = root.to_dict()
        else:
            result = engine.execute(query)
            span_dict = None
        cpu_ms = (time.thread_time() - cpu_start) * 1000.0
    return result.payload, result.stats, cpu_ms, span_dict


def _run_join_task(
    strategy: str,
    side_a: Sequence[SpatialObject],
    chunk: Sequence[SpatialObject],
    query: SpatialJoin,
    backend: str,
    traced: bool = False,
):
    with kernels.use_backend(backend):
        cpu_start = time.thread_time()
        if traced:
            with trace.start_trace("shard.worker") as root:
                root.set(pid=os.getpid())
                payload, stats, _raw = timed(
                    lambda: run_join(strategy, side_a, chunk, query)
                )
            span_dict = root.to_dict()
        else:
            payload, stats, _raw = timed(
                lambda: run_join(strategy, side_a, chunk, query)
            )
            span_dict = None
        cpu_ms = (time.thread_time() - cpu_start) * 1000.0
    return payload, stats, cpu_ms, span_dict

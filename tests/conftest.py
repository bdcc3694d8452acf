"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.aabb import AABB
from repro.neuro.circuit import Circuit, generate_circuit
from repro.objects import BoxObject

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def small_circuit() -> Circuit:
    """A tiny circuit shared by read-only tests (never mutate it)."""
    return generate_circuit(n_neurons=8, seed=101)


@pytest.fixture(scope="session")
def medium_circuit() -> Circuit:
    """A mid-size circuit for index/join integration tests (read-only)."""
    return generate_circuit(n_neurons=20, seed=202)


@pytest.fixture()
def unit_box() -> AABB:
    return AABB(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def grid_boxes(n: int, spacing: float = 2.0, size: float = 1.0) -> list[BoxObject]:
    """n^3 disjoint unit boxes on a regular grid (deterministic test data)."""
    out = []
    uid = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lo = (i * spacing, j * spacing, k * spacing)
                out.append(
                    BoxObject(
                        uid=uid,
                        box=AABB(lo[0], lo[1], lo[2], lo[0] + size, lo[1] + size, lo[2] + size),
                    )
                )
                uid += 1
    return out


@pytest.fixture()
def grid27() -> list[BoxObject]:
    return grid_boxes(3)


def write_v1_checkpoint(root, objects, epoch: int, wal_seq: int, page_capacity: int = 8):
    """Hand-write a v1 (JSON lines) checkpoint directory, as older releases did.

    The library writes only the v2 columnar format; this keeps the v1
    reader and mixed-format recovery under test.  Layout: ``ckpt-<epoch>/``
    with ``objects.jsonl`` (one ``{"page", "objects"}`` line per page) and a
    ``manifest.json`` carrying the data file's CRC32.
    """
    import json
    import zlib
    from pathlib import Path

    from repro.durability.serde import encode_object

    objects = sorted(objects, key=lambda obj: obj.uid)
    pages = [
        objects[start : start + page_capacity]
        for start in range(0, len(objects), page_capacity)
    ]
    lines = [
        json.dumps({"page": page_id, "objects": [encode_object(o) for o in page]})
        for page_id, page in enumerate(pages)
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path = Path(root) / f"ckpt-{epoch:010d}"
    path.mkdir(parents=True)
    (path / "objects.jsonl").write_bytes(data)
    manifest = {
        "format_version": 1,
        "epoch": epoch,
        "wal_seq": wal_seq,
        "num_objects": len(objects),
        "num_pages": len(pages),
        "page_capacity": page_capacity,
        "num_shards": None,
        "data_crc32": zlib.crc32(data),
    }
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return path

"""SWC morphology interchange.

SWC is the de-facto exchange format for neuron morphologies (one sample per
line: ``index type x y z radius parent``).  Supporting it makes the library
usable with real reconstructions (NeuroMorpho.org etc.) in place of the
synthetic generator.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from repro.errors import MorphologyError
from repro.geometry.vec import Vec3
from repro.neuro.morphology import Morphology, Section, SectionType

__all__ = ["write_swc", "read_swc", "dumps_swc", "loads_swc"]


def write_swc(morphology: Morphology, target: str | Path | TextIO) -> None:
    """Write ``morphology`` to a path or text stream in SWC format."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="ascii") as handle:
            _write(morphology, handle)
    else:
        _write(morphology, target)


def dumps_swc(morphology: Morphology) -> str:
    buffer = io.StringIO()
    _write(morphology, buffer)
    return buffer.getvalue()


def _write(morphology: Morphology, out: TextIO) -> None:
    out.write("# generated by repro.neuro.swc\n")
    out.write("# index type x y z radius parent\n")
    next_sample = 1
    soma = morphology.soma_position
    out.write(
        f"{next_sample} {int(SectionType.SOMA)} {soma.x:.6f} {soma.y:.6f} {soma.z:.6f} "
        f"{morphology.soma_radius:.6f} -1\n"
    )
    soma_sample = next_sample
    next_sample += 1

    last_sample_of_section: dict[int, int] = {}
    for section in sorted(morphology.sections.values(), key=lambda s: s.section_id):
        if section.parent_id == -1:
            parent_sample = soma_sample
        else:
            parent_sample = last_sample_of_section[section.parent_id]
        # Every point is written, including the one shared with the parent:
        # the branch point's radius can differ per child (taper), and SWC
        # only preserves it through an explicit (coordinate-duplicating)
        # sample.  The reader recognises the duplication and does not create
        # a zero-length segment.
        points = list(zip(section.points, section.radii))
        for point, radius in points:
            out.write(
                f"{next_sample} {int(section.section_type)} "
                f"{point.x:.6f} {point.y:.6f} {point.z:.6f} {radius:.6f} {parent_sample}\n"
            )
            parent_sample = next_sample
            next_sample += 1
        last_sample_of_section[section.section_id] = parent_sample


def read_swc(source: str | Path | TextIO) -> Morphology:
    """Read a morphology from a path or text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            return _read(handle)
    return _read(source)


def loads_swc(text: str) -> Morphology:
    return _read(io.StringIO(text))


def _read(handle: TextIO) -> Morphology:
    samples: dict[int, tuple[int, Vec3, float, int]] = {}
    for line_no, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise MorphologyError(f"SWC line {line_no}: expected 7 fields, got {len(parts)}")
        index = int(parts[0])
        sample_type = int(parts[1])
        point = Vec3(float(parts[2]), float(parts[3]), float(parts[4]))
        radius = float(parts[5])
        parent = int(parts[6])
        if index in samples:
            raise MorphologyError(f"SWC line {line_no}: duplicate sample index {index}")
        samples[index] = (sample_type, point, radius, parent)

    soma_ids = [i for i, (t, _, _, _) in samples.items() if t == int(SectionType.SOMA)]
    if not soma_ids:
        raise MorphologyError("SWC file has no soma sample")
    soma_id = soma_ids[0]
    soma_type, soma_point, soma_radius, _ = samples[soma_id]
    del soma_type

    children: dict[int, list[int]] = {}
    for index, (_, _, _, parent) in samples.items():
        children.setdefault(parent, []).append(index)
    for kids in children.values():
        kids.sort()

    morphology = Morphology(soma_position=soma_point, soma_radius=soma_radius)
    next_section_id = 0

    # A section starts at each child of the soma and after each branch point.
    # ``stack`` holds (start_sample, parent_section_id, attach_point, attach_radius).
    stack: list[tuple[int, int, Vec3, float]] = []
    for child in children.get(soma_id, []):
        stack.append((child, -1, samples[child][1], samples[child][2]))

    while stack:
        start, parent_section, attach_point, attach_radius = stack.pop(0)
        points: list[Vec3] = []
        radii: list[float] = []
        first_point = samples[start][1]
        if parent_section != -1 and first_point.distance_to(attach_point) > 1e-9:
            # Legacy SWC without duplicated branch-point samples: re-create
            # the shared first point from the parent's end.
            points.append(attach_point)
            radii.append(attach_radius)
        current = start
        section_type = SectionType(samples[current][0])
        while True:
            _, point, radius, _ = samples[current]
            points.append(point)
            radii.append(radius)
            kids = children.get(current, [])
            if len(kids) == 1:
                current = kids[0]
                continue
            break
        if len(points) < 2:
            # A lone sample cannot form a section: skip degenerate stubs.
            kids = children.get(current, [])
        section_id = next_section_id
        if len(points) >= 2:
            morphology.add_section(
                Section(
                    section_id=section_id,
                    section_type=section_type,
                    parent_id=parent_section,
                    points=points,
                    radii=radii,
                )
            )
            next_section_id += 1
            attach_parent = section_id
        else:
            attach_parent = parent_section
        end_point = points[-1]
        end_radius = radii[-1]
        for kid in children.get(current, []):
            stack.append((kid, attach_parent, end_point, end_radius))
    return morphology

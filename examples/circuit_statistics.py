#!/usr/bin/env python3
"""Tissue statistics: the FLAT production use case of paper §2.1.

"FLAT is currently used by the neuroscientists to compute statistics
(tissue density etc.) of the models they build."  This example scans the
cortical column with a grid of adjacent range queries, derives per-layer
tissue statistics, and reports the I/O both index structures needed for the
scan.  It also exercises the SWC and surface-mesh substrates: the densest
cell's neurons are exported and meshed.

Run:  python examples/circuit_statistics.py
"""

from __future__ import annotations

import math
from pathlib import Path
from tempfile import TemporaryDirectory

import repro
from repro.experiments import tissue_statistics_experiment
from repro.neuro.surface import neuron_surface_mesh
from repro.utils.tables import Table


def main() -> None:
    circuit = repro.generate_circuit(n_neurons=40, seed=2013)
    index = repro.FLATIndex(circuit.segments(), page_capacity=48)

    # Per-layer statistics via FLAT range queries over layer slabs.
    column = circuit.column_box()
    layer_bounds = [1.0, 0.92, 0.66, 0.50, 0.26, 0.0]  # pia -> white matter
    layer_names = ["L1", "L2/3", "L4", "L5", "L6"]
    table = Table(
        ["layer", "segments", "cable length um", "segments/um^3", "pages read"],
        title="per-layer tissue statistics (computed with FLAT range queries)",
    )
    for name, (top, bottom) in zip(layer_names, zip(layer_bounds, layer_bounds[1:])):
        slab = repro.AABB(
            column.min_x,
            bottom * circuit.config.column_height,
            column.min_z,
            column.max_x,
            top * circuit.config.column_height,
            column.max_z,
        )
        result = index.query(slab)
        segments = [index.object(uid) for uid in result.uids]
        cable = sum(s.length for s in segments)
        volume = math.pi * circuit.config.column_radius**2 * (slab.max_y - slab.min_y)
        table.add_row(
            [
                name,
                len(segments),
                cable,
                len(segments) / volume,
                result.stats.partitions_fetched,
            ]
        )
    print(table.render())

    # Whole-column scan: total cost FLAT vs R-tree (experiment E8).
    print()
    print(tissue_statistics_experiment().render())

    # Exercise the interchange substrates on one neuron.
    neuron = circuit.neurons[0]
    with TemporaryDirectory(prefix="repro_stats_") as out_dir:
        swc_path = Path(out_dir) / f"neuron_{neuron.gid}.swc"
        repro.write_swc(neuron.morphology, swc_path)
        reread = repro.read_swc(swc_path)
    mesh = neuron_surface_mesh(neuron.morphology, sides=6)
    print(
        f"\nneuron {neuron.gid}: {neuron.morphology.num_sections} sections, "
        f"{neuron.morphology.num_segments} segments, "
        f"total cable {neuron.morphology.total_length():.0f} um"
    )
    print(f"SWC round-trip: wrote {swc_path.name}, reread "
          f"{reread.num_segments} segments (match: {reread.num_segments == neuron.morphology.num_segments})")
    print(f"surface mesh: {mesh.num_vertices} vertices, {mesh.num_faces} triangles, "
          f"area {mesh.surface_area():.0f} um^2")


if __name__ == "__main__":
    main()

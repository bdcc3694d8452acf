"""Experiment harness: one function per paper figure / headline claim.

Every experiment returns a small dataclass with the series the demo screens
displayed and offers ``render()`` for the text table; benchmarks and
examples call these functions so the numbers in ``repro report``, the
benches and the examples always come from the same code path.
"""

from repro.experiments.datasets import circuit_dataset, flat_index_for
from repro.experiments.fig_flat import (
    crawl_trace_experiment,
    density_sweep_experiment,
    flat_vs_rtree_experiment,
    tissue_statistics_experiment,
)
from repro.experiments.fig_scout import (
    pruning_experiment,
    walkthrough_experiment,
)
from repro.experiments.fig_touch import join_comparison_experiment, join_scaling_experiment
from repro.experiments.claims import headline_claims

__all__ = [
    "circuit_dataset",
    "crawl_trace_experiment",
    "density_sweep_experiment",
    "flat_index_for",
    "flat_vs_rtree_experiment",
    "headline_claims",
    "join_comparison_experiment",
    "join_scaling_experiment",
    "pruning_experiment",
    "tissue_statistics_experiment",
    "walkthrough_experiment",
]

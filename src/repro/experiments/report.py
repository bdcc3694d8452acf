"""One-shot report generator: every experiment, one document.

``generate_report`` runs the full experiment suite (E1-E8, the ablations
and the headline claims) and assembles a single plain-text report,
regenerated on the current machine.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

from typing import Callable

from repro.utils.timers import Stopwatch

__all__ = ["generate_report"]

_RULE = "=" * 72


def generate_report(quick: bool = True, progress: Callable[[str], None] | None = None) -> str:
    """Run everything and return the assembled report text.

    ``quick`` shrinks workloads (suitable for CI); ``progress`` receives a
    line per section as it completes (the CLI prints them).
    """
    from repro.experiments.ablations import (
        a1_flat_verification,
        a2_flat_page_capacity,
        a3_scout_content_awareness,
        a4_scout_pruning,
        a5_touch_filtering,
        a6_touch_fanout,
        a7_flat_incremental_maintenance,
        a8_touch_eps_sensitivity,
    )
    from repro.experiments.claims import headline_claims
    from repro.experiments.fig_flat import (
        crawl_trace_experiment,
        density_sweep_experiment,
        flat_vs_rtree_experiment,
        tissue_statistics_experiment,
    )
    from repro.experiments.fig_scout import pruning_experiment, walkthrough_experiment
    from repro.experiments.fig_touch import (
        join_comparison_experiment,
        join_scaling_experiment,
    )

    sections: list[tuple[str, Callable[[], str]]] = [
        (
            "E1 FLAT vs R-tree (dense)",
            lambda: flat_vs_rtree_experiment(
                region="dense", num_queries=4 if quick else 12
            ).render(),
        ),
        (
            "E1 FLAT vs R-tree (sparse)",
            lambda: flat_vs_rtree_experiment(
                region="sparse", num_queries=4 if quick else 12
            ).render(),
        ),
        (
            "E2 density sweep",
            lambda: density_sweep_experiment(
                density_factors=(1, 2, 4) if quick else (1, 2, 4, 8)
            ).render(),
        ),
        ("E3 crawl trace", lambda: crawl_trace_experiment().render()),
        ("E4 candidate pruning", lambda: pruning_experiment().render()),
        (
            "E5 walkthrough prefetching",
            lambda: walkthrough_experiment(num_walks=2 if quick else 3).render(),
        ),
        (
            "E6 join comparison",
            lambda: join_comparison_experiment(n_per_side=1000 if quick else 2500).render(),
        ),
        (
            "E7 join scaling",
            lambda: join_scaling_experiment(
                sizes=(500, 1000) if quick else (1000, 2000, 4000),
                nested_loop_max=1000 if quick else 2000,
            ).render(),
        ),
        ("E8 tissue statistics", lambda: tissue_statistics_experiment().render()),
        ("A1 FLAT verification", lambda: a1_flat_verification().render()),
        ("A2 FLAT page capacity", lambda: a2_flat_page_capacity().render()),
        ("A3 SCOUT smoothing", lambda: a3_scout_content_awareness().render()),
        ("A4 SCOUT pruning", lambda: a4_scout_pruning().render()),
        ("A5 TOUCH filtering", lambda: a5_touch_filtering().render()),
        ("A6 TOUCH fanout", lambda: a6_touch_fanout().render()),
        ("A7 FLAT maintenance", lambda: a7_flat_incremental_maintenance().render()),
        ("A8 TOUCH tolerance", lambda: a8_touch_eps_sensitivity().render()),
        ("Headline claims", lambda: headline_claims(quick=quick).render()),
    ]

    stopwatch = Stopwatch()
    chunks = [
        "repro experiment report",
        f"mode: {'quick' if quick else 'full'}",
        _RULE,
    ]
    with stopwatch:
        for title, run in sections:
            text = run()
            chunks.append(f"\n### {title}\n")
            chunks.append(text)
            chunks.append("\n" + _RULE)
            if progress is not None:
                progress(f"done: {title}")
    chunks.append(f"\ntotal wall time: {stopwatch.elapsed:.1f} s")
    return "\n".join(chunks)

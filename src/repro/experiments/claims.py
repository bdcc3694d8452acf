"""Headline-claim verification: the quantitative statements of the paper.

The demo paper inherits its numbers from the underlying systems papers; the
statements it prints are:

* C1 (§2.1) — FLAT's range-query cost is (approximately) independent of data
  density, while the R-tree's grows with density.
* C2 (§3.1) — SCOUT speeds up query sequences "by a factor of up to 15x"
  and beats Hilbert/extrapolation prefetching.
* C3/C4 (§4.1) — TOUCH is about an order of magnitude faster than PBSM and
  about two orders faster than the small-memory competitors (S3, sweep).
* C5 (§4.1) — TOUCH's memory footprint stays comparable to the small-
  footprint competitors (no replication).

``headline_claims`` measures all of them on the default datasets and
reports measured value + the qualitative expectation.  "Holds" means the
*shape* holds — who wins, and that the gap grows in the direction the paper
reports.  Absolute factors depend on scale: the paper's 1-2 orders of
magnitude for the join were measured on 100M-500M-element BlueGene datasets;
at laptop scale the reproduced gaps are smaller but widen monotonically with
dataset size (E7 in ``repro report`` shows the trend).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import kernels
from repro.experiments.fig_flat import density_sweep_experiment
from repro.experiments.fig_scout import walkthrough_experiment
from repro.experiments.fig_touch import join_scaling_experiment
from repro.utils.tables import Table

__all__ = ["Claim", "ClaimsReport", "headline_claims"]


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    expectation: str
    measured: str
    holds: bool


@dataclass
class ClaimsReport:
    claims: list[Claim]

    def render(self) -> str:
        table = Table(["id", "expectation", "measured", "holds"], title="Headline claims")
        for claim in self.claims:
            table.add_row([claim.claim_id, claim.expectation, claim.measured, claim.holds])
        lines = [table.render(), ""]
        for claim in self.claims:
            lines.append(f"{claim.claim_id}: {claim.statement}")
        return "\n".join(lines)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.claims)


def headline_claims(quick: bool = True) -> ClaimsReport:
    """Measure every headline claim; ``quick`` shrinks the workloads."""
    claims: list[Claim] = []

    # -- C1: density independence ------------------------------------------
    sweep = density_sweep_experiment(
        density_factors=(1, 4, 8) if quick else (1, 2, 4, 8),
        num_queries=6 if quick else 12,
    )
    flat_growth = sweep.flat_growth()
    rtree_growth = sweep.rtree_growth()
    claims.append(
        Claim(
            claim_id="C1",
            statement=(
                "FLAT range-query cost is independent of density; "
                "tree-based indexes degrade (paper 2.1)"
            ),
            expectation="FLAT growth ~1x, R-tree growth substantially larger",
            measured=f"FLAT {flat_growth:.2f}x vs R-tree {rtree_growth:.2f}x",
            holds=flat_growth < 1.25 and rtree_growth > flat_growth * 1.2,
        )
    )

    # -- C2: SCOUT speedup ----------------------------------------------------
    walkthrough = walkthrough_experiment(num_walks=2 if quick else 4)
    scout = walkthrough.row("SCOUT")
    hilbert = walkthrough.row("hilbert")
    extrapolation = walkthrough.row("extrapolation")
    claims.append(
        Claim(
            claim_id="C2",
            statement="SCOUT speeds up query sequences by up to 15x (paper 3.1)",
            expectation="speedup >> 1x and above Hilbert and extrapolation",
            measured=(
                f"SCOUT {scout.speedup:.1f}x (steady state {scout.steady_speedup:.1f}x, "
                f"best walk {scout.best_speedup:.1f}x), "
                f"hilbert {hilbert.speedup:.1f}x, "
                f"extrapolation {extrapolation.speedup:.1f}x"
            ),
            holds=(
                scout.speedup >= 2.5
                and scout.steady_speedup >= 8.0
                and scout.speedup > hilbert.speedup
                and scout.speedup > extrapolation.speedup
            ),
        )
    )

    # -- C3/C4/C5: TOUCH vs competitors -------------------------------------
    # The paper compares the *algorithms*, so every competitor runs on the
    # scalar reference kernels here: the vectorised backend accelerates the
    # grid/sweep filter phases more than TOUCH's pointer-chasing assignment
    # and would skew the wall-clock ratios the claims quote.  Comparison and
    # memory counts are backend-independent either way.
    sizes = (1000, 2000) if quick else (1000, 2000, 4000, 8000)
    with kernels.use_backend("python"):
        scaling = join_scaling_experiment(sizes=sizes, nested_loop_max=2000)
    largest = max(r.n_per_side for r in scaling.rows)

    def row_of(algorithm: str, n: int):
        return next(
            r for r in scaling.rows if r.algorithm == algorithm and r.n_per_side == n
        )

    touch = row_of("TOUCH", largest)
    pbsm = row_of("PBSM", largest)
    s3 = row_of("S3", largest)
    sweep_join = row_of("plane-sweep", largest)
    nested_n = min(largest, 2000)

    pbsm_cmp_ratio = pbsm.comparisons / max(touch.comparisons, 1)
    claims.append(
        Claim(
            claim_id="C3",
            statement="TOUCH is one order of magnitude faster than PBSM (paper 4.1)",
            expectation="PBSM slower and needing several times more comparisons",
            measured=(
                f"PBSM {pbsm.slowdown_vs_touch:.1f}x time, "
                f"{pbsm_cmp_ratio:.1f}x comparisons at n={largest}"
            ),
            holds=pbsm.slowdown_vs_touch > 1.5 and pbsm_cmp_ratio > 2.0,
        )
    )
    # "Widening" is read off the comparison ratio, like C3's: it is
    # deterministic, while two single wall-clock ratios flip on noise.
    def sweep_cmp_ratio(n: int) -> float:
        return row_of("plane-sweep", n).comparisons / max(row_of("TOUCH", n).comparisons, 1)

    sweep_cmp_small, sweep_cmp_large = sweep_cmp_ratio(sizes[0]), sweep_cmp_ratio(largest)
    nested_ratio = row_of("nested-loop", nested_n).slowdown_vs_touch
    claims.append(
        Claim(
            claim_id="C4",
            statement=(
                "TOUCH is two orders of magnitude faster than approaches with an "
                "equally small memory footprint (S3, sweep) (paper 4.1)"
            ),
            expectation="S3 slower; the sweep's comparison gap widening with n; nested-loop >> 10x",
            measured=(
                f"S3 {s3.slowdown_vs_touch:.1f}x, sweep {sweep_join.slowdown_vs_touch:.1f}x time; "
                f"sweep {sweep_cmp_large:.2f}x comparisons at n={largest} "
                f"(was {sweep_cmp_small:.2f}x at n={sizes[0]}), "
                f"nested-loop {nested_ratio:.1f}x at n={nested_n}"
            ),
            holds=(
                s3.slowdown_vs_touch > 1.5
                and sweep_cmp_large >= sweep_cmp_small
                and nested_ratio > 10.0
            ),
        )
    )
    claims.append(
        Claim(
            claim_id="C5",
            statement="TOUCH avoids replication, keeping the memory footprint small (paper 4.1)",
            expectation="TOUCH stores no replicas; footprint far below S3's double index",
            measured=(
                f"TOUCH {touch.memory_bytes:,} B vs PBSM {pbsm.memory_bytes:,} B "
                f"(+replicas) vs S3 {s3.memory_bytes:,} B"
            ),
            holds=touch.memory_bytes <= pbsm.memory_bytes * 2
            and touch.memory_bytes < s3.memory_bytes,
        )
    )
    return ClaimsReport(claims=claims)

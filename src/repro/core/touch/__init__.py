"""TOUCH: in-memory spatial distance join (paper §4, SIGMOD'13) and baselines.

All algorithms compute the identical pair set — every ``(a, b)`` with
``a.aabb`` expanded by ``eps`` intersecting ``b.aabb`` (optionally refined
with an exact geometry predicate) — and differ only in how much work and
memory they need, which is exactly what the demo's Figure 7 charts: time,
memory footprint and number of pairwise comparisons.
"""

from repro.core.touch.join import touch_join
from repro.core.touch.nested_loop import nested_loop_join
from repro.core.touch.pbsm import pbsm_join
from repro.core.touch.plane_sweep import plane_sweep_join
from repro.core.touch.s3 import s3_join
from repro.core.touch.stats import JoinResult, JoinStats, segment_touch_refine

__all__ = [
    "JoinResult",
    "JoinStats",
    "nested_loop_join",
    "pbsm_join",
    "plane_sweep_join",
    "s3_join",
    "segment_touch_refine",
    "touch_join",
]

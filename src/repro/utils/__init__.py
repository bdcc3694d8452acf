"""Small shared utilities: deterministic RNG and text tables."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.tables import Table, format_float, format_int

__all__ = [
    "Table",
    "derive_seed",
    "format_float",
    "format_int",
    "make_rng",
]

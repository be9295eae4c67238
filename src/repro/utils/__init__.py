"""Shared infrastructure: seeding, validation and lightweight reporting.

The benchmarking model of the paper relies on *independently* controllable
sources of randomness (data sampling, weight initialization, data order,
dropout, data augmentation, hyperparameter-optimization seed, ...).  The
:class:`~repro.utils.rng.SeedBundle` abstraction gives every source its own
:class:`numpy.random.Generator` stream so they can be randomized or held
fixed independently of one another.
"""

from repro.utils.rng import (
    SeedBundle,
    SeedScope,
    derive_seed,
    rng_from_seed,
)
from repro.utils.tables import format_table, format_series
from repro.utils.validation import (
    check_array,
    check_fraction,
    check_positive_int,
    check_probability,
    check_random_state,
)

__all__ = [
    "SeedBundle",
    "SeedScope",
    "derive_seed",
    "rng_from_seed",
    "format_table",
    "format_series",
    "check_array",
    "check_fraction",
    "check_positive_int",
    "check_probability",
    "check_random_state",
]

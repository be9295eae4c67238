"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = [
    "check_aligned",
    "check_array",
    "check_fraction",
    "check_positive_int",
    "check_probability",
    "check_random_state",
]


def check_aligned(**sequences) -> None:
    """Raise ``ValueError`` unless the named sequences all have one length.

    Batch APIs take parallel sequences (one entry per item); ``zip`` would
    silently drop the items past the shortest one.
    """
    lengths = {name: len(sequence) for name, sequence in sequences.items()}
    if len(set(lengths.values())) > 1:
        named = ", ".join(f"{name}={length}" for name, length in lengths.items())
        raise ValueError(f"batch inputs must align one-to-one, got lengths {named}")


def check_array(
    x,
    *,
    ndim: Optional[int] = None,
    min_length: int = 0,
    name: str = "array",
) -> np.ndarray:
    """Convert ``x`` to a float ndarray and validate its shape.

    Parameters
    ----------
    x:
        Array-like input.
    ndim:
        Required number of dimensions, if any.
    min_length:
        Minimum length along the first axis.
    name:
        Name used in error messages.
    """
    arr = np.asarray(x, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    if arr.shape[0] < min_length:
        raise ValueError(
            f"{name} must have at least {min_length} elements, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_positive_int(value, name: str = "value", minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum``."""
    ivalue = int(value)
    if ivalue != value or ivalue < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return ivalue


def check_probability(value, name: str = "probability") -> float:
    """Validate that ``value`` lies in [0, 1]."""
    fvalue = float(value)
    if not 0.0 <= fvalue <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return fvalue


def check_fraction(value, name: str = "fraction") -> float:
    """Validate that ``value`` lies in (0, 1)."""
    fvalue = float(value)
    if not 0.0 < fvalue < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return fvalue


def check_random_state(
    random_state: Union[None, int, np.random.Generator],
) -> np.random.Generator:
    """Normalize ``random_state`` to a :class:`numpy.random.Generator`."""
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)

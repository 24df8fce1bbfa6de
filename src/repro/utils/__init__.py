"""Shared utilities: validation, timing, logging, and RNG management."""

from .validation import (
    as_float_array,
    check_locations,
    check_positive,
    check_square,
    check_symmetric,
    check_vector,
)
from .timer import StageTimes
from .rng import as_generator, spawn_generators
from .logging import get_logger

__all__ = [
    "as_float_array",
    "check_locations",
    "check_positive",
    "check_square",
    "check_symmetric",
    "check_vector",
    "StageTimes",
    "as_generator",
    "spawn_generators",
    "get_logger",
]

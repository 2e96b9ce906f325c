"""Statistical summaries for multi-run profiles.

The analysis pipeline "takes traces from a user-defined number of
evaluations, correlates the information, and computes the trimmed mean
value (or other user-defined statistical summaries) for the same
performance value across runs" (paper Sec. III-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Callable, Sequence

Statistic = Callable[[Sequence[float]], float]


def trimmed_mean(values: Sequence[float], proportion: float = 0.2) -> float:
    """Symmetric trimmed mean: drop ``proportion`` of each tail.

    Falls back to the plain mean when trimming would discard everything.
    """
    if not values:
        raise ValueError("trimmed_mean of empty sequence")
    if not 0.0 <= proportion < 0.5:
        raise ValueError(f"trim proportion must be in [0, 0.5), got {proportion}")
    ordered = sorted(values)
    k = int(math.floor(len(ordered) * proportion))
    trimmed = ordered[k : len(ordered) - k] if k else ordered
    if not trimmed:
        trimmed = ordered
    return sum(trimmed) / len(trimmed)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def one_sample_form(statistic: Statistic) -> Callable[[float], float] | None:
    """``f`` with ``f(x) == statistic([x])`` bit for bit for this module's
    statistics, else ``None``: a mean of ``[x]`` is ``sum([x]) / 1``, i.e.
    ``0.0 + x`` (``-0.0`` becomes ``0.0``), and a median is ``x``."""
    if statistic is trimmed_mean or statistic is mean:
        return partial(add, 0.0)
    return (lambda x: x) if statistic is median else None


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one performance value across runs."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @staticmethod
    def of(values: Sequence[float]) -> "Summary":
        if not values:
            raise ValueError("Summary.of empty sequence")
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / len(values)
        return Summary(
            mean=m, std=math.sqrt(var), minimum=min(values), maximum=max(values),
            n=len(values),
        )

"""Aggregation and digest helpers shared by the harness, compare.py and the tests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Iterable, Sequence

#: Document fields that differ between two executions of one simulation.
VOLATILE_KEYS = frozenset({"wallclock_seconds", "created"})


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lower_decile(values: Sequence[float]) -> float:
    """The p10 of a sample: interference on a shared VM only ever adds time."""
    return quantile(values, 0.10)


def low_mean(values: Sequence[float]) -> float:
    """Mean of the samples at or below the median.

    The gated statistic.  Like the lower decile it ignores the slow tail
    that a noisy neighbour adds, but it averages half the sample instead of
    reading one order statistic, so iterations that run *different* seeds
    (the pair workloads) still average their structural differences out.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("low_mean of an empty sample")
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def quartile_spread(values: Sequence[float]) -> float:
    """(q3 - q1) / median, the spread the acceptance check is stated in."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """The ungated ``detail`` block printed beside a gated metric."""
    return {
        "k": len(values),
        "min": min(values),
        "p10": lower_decile(values),
        "q1": quantile(values, 0.25),
        "median": statistics.median(values),
        "q3": quantile(values, 0.75),
        "max": max(values),
        "low_mean": low_mean(values),
        "quartile_spread": quartile_spread(values),
    }


def strip_volatile(node: Any) -> Any:
    """Recursively drop wallclock / timestamp fields from a JSON-like document."""
    if isinstance(node, dict):
        return {k: strip_volatile(v) for k, v in node.items() if k not in VOLATILE_KEYS}
    if isinstance(node, (list, tuple)):
        return [strip_volatile(v) for v in node]
    return node


def digest(documents: Iterable[Any]) -> str:
    """sha-256 over the canonical JSON of volatile-stripped documents."""
    sha = hashlib.sha256()
    for document in documents:
        sha.update(
            json.dumps(strip_volatile(document), sort_keys=True, separators=(",", ":")).encode()
        )
        sha.update(b"\n")
    return sha.hexdigest()


def digest_files(paths: Iterable[Any]) -> str:
    """sha-256 over the bytes of files (given in a canonical order)."""
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            sha.update(handle.read())
        sha.update(b"\n")
    return sha.hexdigest()


def share(part: float, whole: float) -> float:
    """``part / whole`` with an empty whole reading 0 (layer not exercised)."""
    return part / whole if whole else 0.0

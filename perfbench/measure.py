"""Pure helpers of the benchmark driver.

Order statistics with the ten-beyond rule, span self time, output
digests and the phase-tiling check.  Nothing here imports ``repro``, so
the unit tests in ``test_measure.py`` run without the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections.abc import Iterable, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the ten-beyond rule needs."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q``-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie above it: p90 needs at least 100 samples, p50 at least 20.
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {samples_beyond(n, q) if n else 0} "
            f"beyond it; the rule needs {min_beyond}"
        )
    ordered = sorted(values)
    position = (n - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def round_percentile(
    repeats: Sequence[Sequence[float]], q: float, min_beyond: int = MIN_BEYOND
) -> tuple[float, int, bool]:
    """The ``q``-th percentile of per-round latencies over a run's repeats.

    When every repeat alone has ``min_beyond`` rounds beyond the
    percentile, the result is the median of the per-repeat percentiles.
    Otherwise the rounds of all repeats are pooled first.  Returns
    ``(value, sample count, pooled)``.
    """
    if repeats and all(samples_beyond(len(r), q) >= min_beyond for r in repeats):
        value = statistics.median(percentile(r, q, min_beyond) for r in repeats)
        return value, sum(len(r) for r in repeats), False
    pooled = [value for repeat in repeats for value in repeat]
    return percentile(pooled, q, min_beyond), len(pooled), True


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the durations of its child spans.

    A parent is the top of its own thread's span stack, so its children
    run one after another inside it and never overlap.
    """
    return (end - start) - sum(b - a for a, b in children)


def output_digest(stdout: str, history: object, parameters_sha256: str) -> str:
    """SHA-256 over a run's printed output, its history and its final parameters."""
    canonical = json.dumps(
        {"stdout": stdout, "history": history, "parameters": parameters_sha256},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digest_mismatch(label: str, expected: str | None, actual: str | None) -> str | None:
    """``None`` when both digests exist and agree, else a one-line reason."""
    if expected is None or actual is None:
        return f"{label}: digest missing (expected {expected}, got {actual})"
    if expected != actual:
        return f"{label}: digest {actual[:12]} != expected {expected[:12]}"
    return None


#: seconds a process may spend outside its own stamps: interpreter start
#: before its first statement and finalisation after its last exit
#: handler, 0.09-0.21 s together on a 2-vCPU x86-64 VM
OUTSIDE_TOLERANCE = 0.5
#: share of the round window the gaps between rounds may take (the other
#: callbacks' hooks: 0.1-0.5 % on the same VM)
GAP_TOLERANCE = 0.02


def tiling_error(
    wall: float,
    phases: Sequence[tuple[str, float]],
    rounds: Sequence[float] = (),
    outside_tolerance: float = OUTSIDE_TOLERANCE,
    gap_tolerance: float = GAP_TOLERANCE,
) -> str | None:
    """``None`` when ``phases`` tile ``wall`` and the rounds cover their window.

    ``wall`` is measured outside the process (spawn to exit), ``phases``
    inside it (its first statement to its last exit handler), so their
    difference is the time no phase accounts for: it must lie within
    ``[0, outside_tolerance]``.  Every phase must be non-negative.  The
    per-round latencies must sum to the phase named ``rounds`` less at
    most ``gap_tolerance`` of it, so no work between rounds escapes the
    round latencies, and no one-off set-up cost hides in them.
    """
    for name, value in phases:
        if value < 0:
            return f"phase {name} is negative ({value:.6f} s)"
    outside = wall - sum(value for _, value in phases)
    if not 0 <= outside <= outside_tolerance:
        return (f"phases sum to {wall - outside:.6f} s of {wall:.6f} s wall time; "
                f"{outside:.6f} s outside them, allowed [0, {outside_tolerance}]")
    window = dict(phases).get("rounds")
    if rounds:
        if window is None:
            return "round latencies without a round window"
        gaps = window - sum(rounds)
        if not -1e-9 <= gaps <= gap_tolerance * window:
            return (f"round latencies sum to {sum(rounds):.6f} s of a {window:.6f} s "
                    f"round window; gaps between rounds allowed up to {gap_tolerance:.0%}")
    return None

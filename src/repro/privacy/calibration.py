"""Noise-multiplier calibration.

The paper fixes the privacy target (ε, δ), the sampling rate q = b_c / |D|
and the number of iterations T, then searches for the smallest noise
multiplier σ meeting the target (the role played by TensorFlow Privacy in
the original code).  We reproduce this with a bisection over σ using the RDP
accountant, which is monotone: larger σ ⇒ smaller ε.

Calibration is memoised on its scalar arguments (and the orders, as a
tuple) in a bounded LRU cache of :data:`CALIBRATION_CACHE_SIZE` entries,
so a run that calibrates its target and base ε at the same setting, or a
sweep that revisits a cell, bisects each distinct (ε, δ, q, T) once per
process.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from repro.privacy.rdp import DEFAULT_ORDERS, compute_rdp, rdp_to_epsilon

__all__ = ["CALIBRATION_CACHE_SIZE", "epsilon_for_sigma", "calibrate_sigma"]

#: Most distinct calibrations remembered at once.
CALIBRATION_CACHE_SIZE = 256


def epsilon_for_sigma(
    sigma: float,
    q: float,
    steps: int,
    delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """ε achieved by ``steps`` subsampled-Gaussian invocations with multiplier ``sigma``."""
    rdp = compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders)
    epsilon, _ = rdp_to_epsilon(rdp, orders, delta)
    return epsilon


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
    sigma_min: float = 1e-2,
    sigma_max: float = 1e4,
    tolerance: float = 1e-3,
) -> float:
    """Smallest noise multiplier whose ε is at most ``target_epsilon``.

    The returned σ always satisfies the target (the bisection keeps the
    conservative side); a tight tolerance keeps the utility loss negligible.

    Raises
    ------
    ValueError
        If even ``sigma_max`` cannot reach the target (pathological settings),
        or if the target is non-positive.
    """
    return _calibrate(
        target_epsilon, delta, q, steps, tuple(orders), sigma_min, sigma_max, tolerance
    )


@functools.lru_cache(maxsize=CALIBRATION_CACHE_SIZE)
def _calibrate(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    orders: tuple[int, ...],
    sigma_min: float,
    sigma_max: float,
    tolerance: float,
) -> float:
    """The bisection behind :func:`calibrate_sigma` (memoised)."""
    if target_epsilon <= 0:
        raise ValueError(f"target_epsilon must be positive, got {target_epsilon}")
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")

    if epsilon_for_sigma(sigma_min, q, steps, delta, orders) <= target_epsilon:
        return sigma_min
    if epsilon_for_sigma(sigma_max, q, steps, delta, orders) > target_epsilon:
        raise ValueError(
            "cannot reach the target epsilon even with the maximum noise multiplier; "
            "increase sigma_max or relax the target"
        )

    low, high = sigma_min, sigma_max
    while high - low > tolerance:
        middle = 0.5 * (low + high)
        if epsilon_for_sigma(middle, q, steps, delta, orders) <= target_epsilon:
            high = middle
        else:
            low = middle
    return high

"""Scalar reference implementation of the subsampled-Gaussian RDP bound.

The term-by-term loop of Mironov, Talwar & Zhang (2019): for every order,
``log_add`` the ``alpha + 1`` log terms one after another.  It is slow
(one ``lgamma`` triple per term) and exists only as the oracle the
vectorised :func:`repro.privacy.rdp.compute_rdp` is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def log_add(log_a: float, log_b: float) -> float:
    """Numerically stable ``log(exp(log_a) + exp(log_b))``."""
    if log_a == -math.inf:
        return log_b
    if log_b == -math.inf:
        return log_a
    high, low = max(log_a, log_b), min(log_a, log_b)
    return high + math.log1p(math.exp(low - high))


def rdp_subsampled_gaussian(alpha: int, q: float, sigma: float) -> float:
    """RDP of one step of the Poisson-subsampled Gaussian mechanism."""
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return alpha / (2.0 * sigma**2)

    log_total = -math.inf
    log_q = math.log(q)
    log_one_minus_q = math.log1p(-q)
    for k in range(alpha + 1):
        log_term = (
            math.lgamma(alpha + 1)
            - math.lgamma(k + 1)
            - math.lgamma(alpha - k + 1)
            + k * log_q
            + (alpha - k) * log_one_minus_q
            + k * (k - 1) / (2.0 * sigma**2)
        )
        log_total = log_add(log_total, log_term)
    return log_total / (alpha - 1)


def oracle_compute_rdp(
    q: float, sigma: float, steps: int, orders: Sequence[int]
) -> list[float]:
    """Drop-in for ``compute_rdp`` (without its input checks)."""
    return [steps * rdp_subsampled_gaussian(int(order), q, sigma) for order in orders]

"""Rényi differential privacy of the subsampled Gaussian mechanism.

This module implements the standard analysis used by DP-SGD accountants
(Mironov, Talwar, Zhang, "Rényi Differential Privacy of the Sampled Gaussian
Mechanism", 2019): for an integer Rényi order ``alpha``, sampling rate ``q``
and noise multiplier ``sigma``, one step of the mechanism satisfies
``(alpha, rdp)``-RDP with

    rdp = 1 / (alpha - 1) * log( sum_{k=0}^{alpha} C(alpha, k)
                                  (1 - q)^(alpha - k) q^k
                                  exp(k (k - 1) / (2 sigma^2)) )

RDP composes additively over steps, and converts to (ε, δ)-DP via

    epsilon = rdp_total + log(1 / delta) / (alpha - 1)

minimised over the candidate orders.  The bound is an upper bound
(conservative), which is what a privacy guarantee requires.

Evaluation is table-driven.  Only the ``k (k - 1) / (2 sigma^2)`` part of
a log term depends on ``sigma``; the rest,
``log C(alpha, k) + k log q + (alpha - k) log(1 - q)``, is built once per
``(q, orders)`` as one ragged table that concatenates the ``alpha + 1``
terms of every order (3 797 entries for :data:`DEFAULT_ORDERS`).  A
``sigma`` then costs one segmented log-sum-exp over that table
(``np.maximum.reduceat``, subtract, ``exp``, ``np.add.reduceat``,
``log``).  The tables live in a bounded LRU cache of
:data:`TABLE_CACHE_SIZE` entries, so a calibration's bisection and an
accountant's repeated steps reuse one table.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

__all__ = ["DEFAULT_ORDERS", "TABLE_CACHE_SIZE", "compute_rdp", "rdp_to_epsilon"]

#: Integer Rényi orders scanned by default.  The low orders matter in the
#: high-noise regime (small epsilon), the high orders in the low-noise regime.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (
    64,
    80,
    96,
    128,
    192,
    256,
    384,
    512,
)

#: Most ``(q, orders)`` log-term tables kept at once (~90 KB each for
#: :data:`DEFAULT_ORDERS`), so a long ε/q sweep cannot grow the cache.
TABLE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _log_term_table(q: float, orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The ``sigma``-free part of every log term, for ``0 < q < 1``.

    Returns ``(base, pairs, starts, segments, divisors)``.  ``base`` and
    ``pairs`` (``k (k - 1)``) hold one entry per ``(alpha, k)`` with
    ``0 <= k <= alpha``, order after order; ``starts`` indexes each
    order's first entry, ``segments`` maps an entry to its order and
    ``divisors`` is ``alpha - 1``.
    """
    alphas = np.array(orders, dtype=np.int64)
    lengths = alphas + 1
    starts = np.zeros(len(orders), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    segments = np.repeat(np.arange(len(orders)), lengths)
    alpha = alphas[segments]
    k = np.arange(alpha.size, dtype=np.int64) - starts[segments]
    log_factorial = np.array([math.lgamma(n + 1) for n in range(int(alphas.max()) + 1)])
    base = (
        log_factorial[alpha]
        - log_factorial[k]
        - log_factorial[alpha - k]
        + k * math.log(q)
        + (alpha - k) * math.log1p(-q)
    )
    table = (base, (k * (k - 1)).astype(np.float64), starts, segments, alphas - 1.0)
    for array in table:
        array.flags.writeable = False
    return table


def _rdp_subsampled_gaussian(q: float, sigma: float, orders: tuple[int, ...]) -> np.ndarray:
    """RDP of one step of the Poisson-subsampled Gaussian mechanism, per order."""
    if q == 0.0:
        return np.zeros(len(orders))
    if q == 1.0:
        return np.array(orders, dtype=np.float64) / (2.0 * sigma**2)
    base, pairs, starts, segments, divisors = _log_term_table(q, orders)
    log_terms = base + pairs / (2.0 * sigma**2)
    peaks = np.maximum.reduceat(log_terms, starts)
    log_terms -= peaks[segments]
    np.exp(log_terms, out=log_terms)
    return (peaks + np.log(np.add.reduceat(log_terms, starts))) / divisors


def compute_rdp(
    q: float,
    sigma: float,
    steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> list[float]:
    """RDP values (one per order) after ``steps`` compositions.

    Parameters
    ----------
    q:
        Sampling rate, the batch size divided by the dataset size.
    sigma:
        Noise multiplier (noise standard deviation / sensitivity).
    steps:
        Number of mechanism invocations (training iterations).
    orders:
        Integer Rényi orders to evaluate; each must be >= 2.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling rate q must be in [0, 1], got {q}")
    if sigma <= 0:
        raise ValueError(f"noise multiplier sigma must be positive, got {sigma}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if any(order < 2 or int(order) != order for order in orders):
        raise ValueError("all Rényi orders must be integers >= 2")
    orders = tuple(int(order) for order in orders)
    if not orders:
        return []
    return (steps * _rdp_subsampled_gaussian(float(q), sigma, orders)).tolist()


def rdp_to_epsilon(
    rdp: Sequence[float],
    orders: Sequence[int],
    delta: float,
) -> tuple[float, int]:
    """Convert accumulated RDP values to an (ε, δ) guarantee.

    Returns the smallest ε over the candidate orders together with the order
    that achieved it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if len(rdp) != len(orders):
        raise ValueError("rdp and orders must have the same length")

    best_epsilon = math.inf
    best_order = orders[0]
    log_inverse_delta = math.log(1.0 / delta)
    for value, order in zip(rdp, orders):
        epsilon = value + log_inverse_delta / (order - 1)
        if epsilon < best_epsilon:
            best_epsilon = epsilon
            best_order = order
    return best_epsilon, int(best_order)

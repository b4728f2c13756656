"""Hyper-parameter tuning helpers (Theorem 1, Equation 4, Claim 6).

Normalising per-example gradients makes the optimal learning rate inversely
proportional to the DP noise multiplier: tune a *base* learning rate
``eta_b`` once at a *base* noise multiplier ``sigma_b``, then transfer to any
other privacy level with ``eta = eta_b * sigma_b / sigma``.  This saves the
quadratic ``(eta, C)``-grid of vanilla DP-SGD.
"""

from __future__ import annotations

import math

from repro.privacy.calibration import calibrate_sigma
from repro.privacy.mechanisms import l2_sensitivity_of_sum

__all__ = [
    "transfer_learning_rate",
    "optimal_learning_rate",
    "theorem1_bound",
    "protocol_sigma",
]


def transfer_learning_rate(base_lr: float, base_sigma: float, sigma: float) -> float:
    """Learning rate for noise multiplier ``sigma`` given a tuned base pair.

    ``eta = eta_b * sigma_b / sigma`` (Claim 6).  For ``sigma = 0``
    (non-private runs) the base learning rate is returned unchanged.
    """
    if base_lr <= 0:
        raise ValueError("base_lr must be positive")
    if base_sigma <= 0:
        raise ValueError("base_sigma must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return base_lr
    return base_lr * base_sigma / sigma


def optimal_learning_rate(
    initial_loss: float,
    batch_size: int,
    iterations: int,
    lipschitz: float,
    dimension: int,
    sigma: float,
) -> float:
    """Equation 4: the learning rate minimising the Theorem 1 bound.

    ``eta = (1 / sigma) * sqrt(2 F(w_0) b_c^2 / (T L d))``, valid in the
    regime ``sigma^2 d / b_c^2 >> 1``.
    """
    if min(initial_loss, lipschitz) <= 0 or min(batch_size, iterations, dimension) <= 0:
        raise ValueError("all Theorem 1 quantities must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive in the DP regime of Equation 4")
    return (1.0 / sigma) * math.sqrt(
        2.0 * initial_loss * batch_size**2 / (iterations * lipschitz * dimension)
    )


def theorem1_bound(
    initial_loss: float,
    learning_rate: float,
    iterations: int,
    lipschitz: float,
    dimension: int,
    sigma: float,
    batch_size: int,
    gradient_noise: float = 0.0,
) -> float:
    """The Theorem 1 upper bound on the average gradient norm.

    ``3 F(w_0) / (T eta) + (3 L eta / 2) (1 + sigma^2 d / b_c^2) + 8 nu``.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if min(initial_loss, lipschitz) <= 0 or min(iterations, dimension, batch_size) <= 0:
        raise ValueError("all Theorem 1 quantities must be positive")
    if sigma < 0 or gradient_noise < 0:
        raise ValueError("sigma and gradient_noise must be non-negative")
    term_one = 3.0 * initial_loss / (iterations * learning_rate)
    term_two = 1.5 * lipschitz * learning_rate * (
        1.0 + sigma**2 * dimension / batch_size**2
    )
    return term_one + term_two + 8.0 * gradient_noise


def protocol_sigma(
    target_epsilon: float,
    delta: float,
    sampling_rate: float,
    iterations: int,
) -> float:
    """Noise standard deviation ``sigma`` of Algorithm 1 meeting an (ε, δ) target.

    Algorithm 1 adds ``N(0, sigma^2 I)`` to the sum of unit-norm slots, whose
    l2-sensitivity is 2.  The subsampled-Gaussian accountant works with the
    noise *multiplier* (noise std / sensitivity), so the returned value is
    ``2 * calibrated_multiplier``.  :func:`calibrate_sigma` memoises the
    multiplier, so repeated calls with the same arguments are free.
    """
    multiplier = calibrate_sigma(
        target_epsilon=target_epsilon,
        delta=delta,
        q=sampling_rate,
        steps=iterations,
    )
    return l2_sensitivity_of_sum("normalize") * multiplier

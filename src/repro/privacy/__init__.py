"""Differential-privacy substrate.

The paper uses the subsampled Gaussian mechanism inside DP-SGD and searches
for the noise multiplier with TensorFlow Privacy.  This package provides the
same functionality without external dependencies:

- :mod:`repro.privacy.rdp` -- Rényi-DP bounds for the (Poisson) subsampled
  Gaussian mechanism and the RDP → (ε, δ) conversion.  The σ-free part of
  every log term is tabulated once per ``(q, orders)`` (bounded LRU cache);
  each σ is then one segmented log-sum-exp over that table.
- :class:`repro.privacy.accountant.RDPAccountant` -- composition over
  training steps.
- :func:`repro.privacy.calibration.calibrate_sigma` -- binary-search the
  smallest noise multiplier meeting an (ε, δ) target (the paper's
  "search for noise multiplier given ε and δ"), memoised per
  (ε, δ, q, T) so repeated calibrations in a process are free.
- :mod:`repro.privacy.mechanisms` -- Gaussian mechanism plus the two
  sensitivity-bounding operations the paper contrasts: clipping (vanilla
  DP-SGD) and normalisation (this paper).
"""

from repro.privacy.accountant import RDPAccountant
from repro.privacy.calibration import calibrate_sigma, epsilon_for_sigma
from repro.privacy.mechanisms import (
    clip_gradients,
    gaussian_noise,
    normalize_gradients,
)
from repro.privacy.rdp import DEFAULT_ORDERS, compute_rdp, rdp_to_epsilon

__all__ = [
    "RDPAccountant",
    "calibrate_sigma",
    "epsilon_for_sigma",
    "clip_gradients",
    "normalize_gradients",
    "gaussian_noise",
    "compute_rdp",
    "rdp_to_epsilon",
    "DEFAULT_ORDERS",
]

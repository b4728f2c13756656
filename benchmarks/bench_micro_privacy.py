"""Micro-benchmarks of the RDP accountant (σ calibration + accounting).

One group (``micro-privacy``):

- **Is σ still the same σ?**  Every benchmark first runs the identity
  gate: with the calibration and table caches emptied, ``protocol_sigma``
  must return the pinned ``float.hex`` noise level of each end-to-end
  benchmark workload, so the CI bench job fails on a change of the
  calibrated noise, not only on crashes.
- **What does the accountant cost?**  ``bench_micro_privacy_calibrate``
  times one cold ``calibrate_sigma`` at the reference workload's setting
  (both caches emptied before every round, so the table build and the
  full bisection are timed, never a memo hit), and
  ``bench_micro_privacy_accountant_step`` one ``RDPAccountant.step`` over
  ``DEFAULT_ORDERS`` at the same sampling rate.

Run (the bench files use a non-default prefix, so the collection
overrides are required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_privacy.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' \
        --benchmark-only --benchmark-json=BENCH_micro_privacy.json
"""

from __future__ import annotations

import pytest

from repro.core.hyperparams import protocol_sigma
from repro.privacy import calibration, rdp
from repro.privacy.accountant import RDPAccountant
from repro.privacy.calibration import calibrate_sigma

#: (ε, δ, q, T) of the reference workload: ``repro run --seed 1 --epochs 2``.
REFERENCE = (2.0, 0.001884371901952303, 0.05333333333333334, 38)

#: ``protocol_sigma(ε, δ, q, T)`` of each end-to-end workload, as ``float.hex``.
GOLDEN_SIGMAS = {
    REFERENCE: "0x1.197d89e147ae2p+1",
    (2.0, 0.013524866756124824, 0.32, 125): "0x1.7aca6241eb854p+3",
    (2.0, 0.001884371901952303, 0.05333333333333334, 188): "0x1.a6f0709c28f5cp+1",
}


def clear_caches() -> None:
    calibration._calibrate.cache_clear()
    rdp._log_term_table.cache_clear()


def assert_golden_sigmas() -> None:
    """Identity gate run before timing: a changed σ fails the bench job."""
    clear_caches()
    for arguments, expected in GOLDEN_SIGMAS.items():
        actual = protocol_sigma(*arguments).hex()
        assert actual == expected, (
            f"protocol_sigma{arguments} = {actual}, pinned value is {expected}"
        )


@pytest.mark.benchmark(group="micro-privacy")
def bench_micro_privacy_calibrate(benchmark):
    """One cold σ calibration at the reference setting."""
    assert_golden_sigmas()
    sigma = benchmark.pedantic(
        calibrate_sigma, args=REFERENCE, setup=clear_caches, rounds=20, iterations=1
    )
    assert (2.0 * sigma).hex() == GOLDEN_SIGMAS[REFERENCE]


@pytest.mark.benchmark(group="micro-privacy")
def bench_micro_privacy_accountant_step(benchmark):
    """One accountant step over ``DEFAULT_ORDERS`` at the reference rate."""
    assert_golden_sigmas()
    epsilon, delta, q, steps = REFERENCE
    sigma = calibrate_sigma(epsilon, delta, q, steps)
    accountant = RDPAccountant()

    benchmark(accountant.step, q=q, sigma=sigma)
    assert accountant.steps >= 1
    assert accountant.get_epsilon(delta) > 0.0

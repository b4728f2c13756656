"""σ calibration: pinned values, oracle identity and memoisation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.hyperparams import protocol_sigma
from repro.privacy import calibration
from repro.privacy.calibration import CALIBRATION_CACHE_SIZE, calibrate_sigma
from repro.privacy.rdp import DEFAULT_ORDERS
from tests.privacy.rdp_oracle import oracle_compute_rdp

#: ``protocol_sigma(ε, δ, q, T)`` of the scalar accountant, as ``float.hex``.
GOLDEN_SIGMAS = {
    "reference": ((2.0, 0.001884371901952303, 0.05333333333333334, 38), "0x1.197d89e147ae2p+1"),
    "population": ((2.0, 0.013524866756124824, 0.32, 125), "0x1.7aca6241eb854p+3"),
    "serve_chaos": ((2.0, 0.001884371901952303, 0.05333333333333334, 188), "0x1.a6f0709c28f5cp+1"),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_SIGMAS))
def test_protocol_sigma_matches_golden_value(workload):
    arguments, expected = GOLDEN_SIGMAS[workload]
    assert protocol_sigma(*arguments).hex() == expected


ORACLE_GRID = list(
    itertools.product(
        (0.5, 2.0, 8.0),
        (1e-5, 0.001884371901952303),
        ((0.01, 1000), (0.05333333333333334, 38), (0.32, 125), (1.0, 38)),
    )
)


@pytest.mark.parametrize(("epsilon", "delta", "rate_and_steps"), ORACLE_GRID)
def test_calibration_equals_oracle_driven_bisection(monkeypatch, epsilon, delta, rate_and_steps):
    q, steps = rate_and_steps
    sigma = calibrate_sigma(epsilon, delta, q, steps)
    monkeypatch.setattr(calibration, "compute_rdp", oracle_compute_rdp)
    bisect = calibration._calibrate.__wrapped__
    oracle_sigma = bisect(epsilon, delta, q, steps, DEFAULT_ORDERS, 1e-2, 1e4, 1e-3)
    assert sigma.hex() == oracle_sigma.hex()


@pytest.fixture
def rdp_calls(monkeypatch):
    """Count the ``compute_rdp`` calls the calibration makes."""
    calls = []
    original = calibration.compute_rdp

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(calibration, "compute_rdp", counting)
    calibration._calibrate.cache_clear()
    return calls


def test_repeated_calibration_does_no_new_rdp_work(rdp_calls):
    first = calibrate_sigma(1.5, 1e-4, 0.04, 211)
    assert rdp_calls
    rdp_calls.clear()
    assert calibrate_sigma(1.5, 1e-4, 0.04, 211) == first
    assert protocol_sigma(1.5, 1e-4, 0.04, 211) == 2.0 * first
    assert rdp_calls == []


def test_orders_forms_share_one_calibration(rdp_calls):
    orders = (2, 4, 8, 16, 32, 64)
    from_tuple = calibrate_sigma(1.0, 1e-5, 0.02, 300, orders=orders)
    rdp_calls.clear()
    assert calibrate_sigma(1.0, 1e-5, 0.02, 300, orders=list(orders)) == from_tuple
    assert calibrate_sigma(1.0, 1e-5, 0.02, 300, orders=np.array(orders)) == from_tuple
    assert rdp_calls == []


def test_list_orders_calibrate():
    orders = [2, 3, 5, 8, 13, 21, 34]
    sigma = calibrate_sigma(0.75, 1e-5, 0.03, 400, orders=orders)
    assert calibration.epsilon_for_sigma(sigma, 0.03, 400, 1e-5, orders) <= 0.75
    assert calibration.epsilon_for_sigma(sigma - 1e-2, 0.03, 400, 1e-5, orders) > 0.75


def test_fractional_orders_still_rejected():
    with pytest.raises(ValueError):
        calibrate_sigma(1.0, 1e-5, 0.02, 300, orders=[2, 2.5])


def test_calibration_cache_is_bounded():
    assert calibration._calibrate.cache_info().maxsize == CALIBRATION_CACHE_SIZE

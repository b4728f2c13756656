"""The vectorised RDP bound against the scalar oracle in ``rdp_oracle``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import rdp
from repro.privacy.rdp import DEFAULT_ORDERS, TABLE_CACHE_SIZE, compute_rdp
from tests.privacy.rdp_oracle import oracle_compute_rdp

sampling_rates = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
noise_multipliers = st.floats(1e-2, 1e4)
order_subsets = st.lists(
    st.sampled_from(DEFAULT_ORDERS), min_size=1, max_size=12, unique=True
).map(sorted)


def as_tuple(orders):
    return tuple(orders)


def as_list(orders):
    return list(orders)


def as_numpy_ints(orders):
    return [np.int64(order) for order in orders]


ORDER_FORMS = [as_tuple, as_list, as_numpy_ints]


@settings(max_examples=60, deadline=None)
@given(q=sampling_rates, sigma=noise_multipliers, orders=order_subsets)
@pytest.mark.parametrize("form", ORDER_FORMS)
def test_matches_scalar_oracle(form, q, sigma, orders):
    expected = oracle_compute_rdp(q, sigma, 1, orders)
    actual = compute_rdp(q=q, sigma=sigma, steps=1, orders=form(orders))
    assert all(type(value) is float for value in actual)
    np.testing.assert_allclose(actual, expected, rtol=1e-6, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    q=sampling_rates,
    sigma=noise_multipliers,
    orders=order_subsets,
    steps=st.integers(0, 10**6),
)
def test_exactly_linear_in_steps(q, sigma, orders, steps):
    one = compute_rdp(q=q, sigma=sigma, steps=1, orders=orders)
    many = compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders)
    assert many == [steps * value for value in one]


@settings(max_examples=40, deadline=None)
@given(sigma=noise_multipliers, orders=order_subsets, steps=st.integers(0, 1000))
@pytest.mark.parametrize("q", [0.0, 1.0])
def test_closed_forms_unchanged(q, sigma, orders, steps):
    assert compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders) == (
        oracle_compute_rdp(q, sigma, steps, orders)
    )


def test_default_orders_match_oracle_at_benchmark_setting():
    q, sigma = 0.05333333333333334, 1.1
    np.testing.assert_allclose(
        compute_rdp(q=q, sigma=sigma, steps=38),
        oracle_compute_rdp(q, sigma, 38, DEFAULT_ORDERS),
        rtol=1e-9,
    )


def test_empty_orders_give_empty_rdp():
    assert compute_rdp(q=0.1, sigma=1.0, steps=3, orders=()) == []


def test_table_cache_is_bounded():
    assert rdp._log_term_table.cache_info().maxsize == TABLE_CACHE_SIZE
    for index in range(TABLE_CACHE_SIZE + 5):
        compute_rdp(q=0.001 * (index + 1), sigma=1.0, steps=1, orders=(2, 3))
    assert rdp._log_term_table.cache_info().currsize <= TABLE_CACHE_SIZE

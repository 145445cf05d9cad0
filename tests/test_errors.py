"""Each argument with a least value is refused below it with one message.

The message is "need NAME >= K, got VALUE" wherever the check sits, and a
NaN is refused too.
"""

import math

import numpy as np
import pytest

from eigenspan import (
    SpectrumModel,
    cheb_t,
    error_at_eigenvalue_bound,
    jackson_factors,
    kernel_value,
    make_filter_spec,
    mapped_interval,
    step_coefficients,
    theoretical_degree_bound,
    trapezoid_rule,
)

IV = mapped_interval(-0.2, 0.4)


def _model():
    return SpectrumModel(np.array([-0.5, 0.1, 0.6]), IV, i=1, ell=1, m=2)


@pytest.mark.parametrize("call, message", [
    (lambda: jackson_factors(-1), "need degree >= 0, got -1"),
    (lambda: step_coefficients(IV, "chebyshev", -1, 10), "need basis index >= 0, got -1"),
    (lambda: make_filter_spec(IV, 10, 0), "need m >= 1, got 0"),
    (lambda: kernel_value(1, 0.0), "need degree >= 2, got 1"),
    (lambda: error_at_eigenvalue_bound(_model(), 0.1, 0, 300), "need m >= 1, got 0"),
    (lambda: theoretical_degree_bound(IV, m=1, n_ev=0, ell=1), "need n_ev >= 1, got 0"),
    (lambda: trapezoid_rule(IV, 2), "need node count >= 4, got 2"),
    (lambda: cheb_t(3, math.nan), "need x >= -1, got nan"),
], ids=["jackson_factors", "step_coefficients", "make_filter_spec", "kernel_value",
        "error_at_eigenvalue_bound", "theoretical_degree_bound", "trapezoid_rule", "cheb_t-nan"])
def test_a_value_below_its_least_is_refused_naming_it(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message

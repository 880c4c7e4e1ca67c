"""Tests for repro.nn.activations and repro.nn.initializers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import (
    drelu_from_x,
    dsigmoid_from_y,
    dtanh_from_y,
    relu,
    sigmoid,
    tanh,
)
from repro.nn.initializers import glorot_uniform, lstm_bias, orthogonal


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_no_overflow_extreme_inputs(self):
        x = np.array([-1e9, 1e9])
        y = sigmoid(x)
        assert y[0] == pytest.approx(0.0, abs=1e-15)
        assert y[1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.isfinite(y))

    @given(arrays(np.float64, 20, elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, x):
        y = sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))
        order = np.argsort(x)
        assert np.all(np.diff(y[order]) >= -1e-15)

    def test_derivative_matches_numeric(self):
        x = np.linspace(-4, 4, 41)
        eps = 1e-6
        num = (sigmoid(x + eps) - sigmoid(x - eps)) / (2 * eps)
        ana = dsigmoid_from_y(sigmoid(x))
        np.testing.assert_allclose(ana, num, atol=1e-8)


class TestClipForm:
    """The hot loops call ``ndarray.clip``; it must *be* np.clip, bitwise."""

    SPECIAL = np.array([
        np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 60.0, -60.0,
        np.nextafter(60.0, np.inf), np.nextafter(-60.0, -np.inf),
        5e-324, -5e-324, 1e308, -1e308,
    ])

    @staticmethod
    def _method(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        x.clip(-60.0, 60.0, out=out)
        return out

    def test_special_values_bitwise(self):
        expect = np.clip(self.SPECIAL, -60.0, 60.0)
        assert self._method(self.SPECIAL).tobytes() == expect.tobytes()

    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    @settings(max_examples=100, deadline=None)
    def test_random_arrays_bitwise(self, x):
        assert (
            self._method(x).tobytes()
            == np.clip(x, -60.0, 60.0).tobytes()
        )

    def test_strided_source_bitwise(self, rng):
        z = rng.normal(0.0, 100.0, (8, 40))
        z[0, :3] = [np.nan, -0.0, np.inf]
        src = z[:, :30]  # the strided gate block forward_inference reads
        assert (
            self._method(src).tobytes()
            == np.clip(src, -60.0, 60.0).tobytes()
        )

    def test_sigmoids_match_clip_reference(self, rng):
        from repro.nn.lstm import _sigmoid_inplace

        x = np.concatenate([self.SPECIAL, rng.normal(0.0, 80.0, 500)])
        ref = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        assert sigmoid(x).tobytes() == ref.tobytes()
        z = x.copy()
        _sigmoid_inplace(z)
        assert z.tobytes() == ref.tobytes()


class TestTanh:
    def test_derivative_matches_numeric(self):
        x = np.linspace(-3, 3, 31)
        eps = 1e-6
        num = (tanh(x + eps) - tanh(x - eps)) / (2 * eps)
        np.testing.assert_allclose(dtanh_from_y(tanh(x)), num, atol=1e-8)


class TestRelu:
    def test_values(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0]
        )

    def test_derivative(self):
        np.testing.assert_array_equal(
            drelu_from_x(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 1.0]
        )


class TestInitializers:
    def test_glorot_bounds(self, rng):
        w = glorot_uniform(rng, 10, 20, (10, 20))
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (10, 20)

    def test_glorot_invalid_fans(self, rng):
        with pytest.raises(ValueError):
            glorot_uniform(rng, 0, 5, (5,))

    def test_orthogonal_square_is_orthogonal(self, rng):
        q = orthogonal(rng, 16, 16)
        np.testing.assert_allclose(q @ q.T, np.eye(16), atol=1e-10)

    def test_orthogonal_tall_has_orthonormal_columns(self, rng):
        q = orthogonal(rng, 20, 8)
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-10)

    def test_orthogonal_invalid(self, rng):
        with pytest.raises(ValueError):
            orthogonal(rng, 0, 4)

    def test_lstm_bias_forget_gate_slice(self):
        b = lstm_bias(5, forget_bias=1.0)
        assert b.shape == (20,)
        np.testing.assert_array_equal(b[5:10], np.ones(5))
        assert b[:5].sum() == 0.0 and b[10:].sum() == 0.0

    def test_lstm_bias_invalid(self):
        with pytest.raises(ValueError):
            lstm_bias(0)

"""Layer contracts: worked examples, invariants, and the gradient oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfreward.autodiff import (
    DiffTensor,
    ShapeError,
    backward,
    concat,
    parameter,
    total,
    zero_grads,
)
from selfreward.layers import (
    conv1d,
    cross_entropy_self,
    deconv3x3,
    fully_connected,
    selective_activation,
    softmax,
    threshold_activation,
)
from selfreward.neurons import (
    cross_entropy2_float,
    cross_entropy_self_values,
    softmax2_float,
    softmax_values,
    tau,
    tau_float,
    tau_slope,
    tau_slope_float,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


# -- conv1d -------------------------------------------------------------------


def test_conv1d_food_detector_case():
    out = conv1d([0.5, 0.0, 0.0], [1.0, 0.0, 0.0], bias=-0.5)
    np.testing.assert_allclose(out.values, [0.0])


def test_conv1d_zero_input_leaves_bias():
    out = conv1d([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], bias=-0.5)
    np.testing.assert_allclose(out.values, [-0.5])


def test_conv1d_dilated_output_length():
    # valid positions: L - (K-1)*dilation
    out = conv1d(np.zeros(40), np.zeros(8), dilation=5)
    assert out.values.shape == (5,)


def test_conv1d_dilation_taps_strided_entries():
    x = np.arange(10.0)
    out = conv1d(x, [1.0, 1.0], dilation=3)
    np.testing.assert_allclose(out.values, x[:7] + x[3:])


def test_conv1d_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(3,\).*\(8,\)"):
        conv1d(np.zeros(3), np.zeros(8))


# -- fully_connected ----------------------------------------------------------


def test_fc_identity():
    x = np.array([0.3, -1.2, 4.0])
    out = fully_connected(x, np.eye(3), np.zeros(3))
    np.testing.assert_allclose(out.values, x)


def test_fc_zero_weight_returns_bias():
    out = fully_connected(np.ones(3), np.zeros((2, 3)), np.array([1.0, 2.0]))
    np.testing.assert_allclose(out.values, [1.0, 2.0])


def test_fc_dot_product_case():
    out = fully_connected([1.0, 0.0, 0.5], np.array([[1.0, 0.0, -1.0]]), np.zeros(1))
    np.testing.assert_allclose(out.values, [0.5])


def test_fc_shape_mismatch():
    with pytest.raises(ShapeError):
        fully_connected(np.ones(4), np.ones((2, 3)), np.zeros(2))


# -- deconv3x3 ----------------------------------------------------------------


def test_deconv_zero_kernel():
    out = deconv3x3(np.random.default_rng(0).normal(size=(4, 5)), np.zeros((3, 3)))
    np.testing.assert_allclose(out.values, 0.0)


def test_deconv_identity_kernel_is_identity():
    kernel = np.zeros((3, 3))
    kernel[1, 1] = 1.0
    grid = np.random.default_rng(1).normal(size=(6, 7))
    out = deconv3x3(grid, kernel)
    np.testing.assert_allclose(out.values, grid)


def test_deconv_one_hot_stamps_kernel():
    kernel = np.full((3, 3), 0.1)
    kernel[1, 1] = 1.0
    grid = np.zeros((3, 3))
    grid[1, 1] = 1.0
    out = deconv3x3(grid, kernel)
    expected = np.full((3, 3), 0.1)
    expected[1, 1] = 1.0
    np.testing.assert_allclose(out.values, expected)


def test_deconv_preserves_shape_at_edges():
    kernel = np.full((3, 3), 0.1)
    kernel[1, 1] = 1.0
    grid = np.zeros((4, 4))
    grid[0, 0] = 1.0  # corner deposit: out-of-bounds parts dropped
    out = deconv3x3(grid, kernel)
    assert out.values.shape == (4, 4)
    assert out.values[0, 0] == pytest.approx(1.0)
    assert out.values[0, 1] == pytest.approx(0.1)
    assert out.values[1, 1] == pytest.approx(0.1)


# -- selective activation -------------------------------------------------------


def test_selective_peak_at_zero():
    assert selective_activation(np.zeros(3)).item() == pytest.approx(1.0)


def test_selective_half_at_epsilon_norm():
    eps = 0.01
    x = np.array([math.sqrt(eps)])
    assert selective_activation(x, eps).item() == pytest.approx(0.5)


def test_selective_worked_example():
    assert selective_activation(np.array([-0.5]), 0.01).item() == pytest.approx(0.01 / 0.26)


clear_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=50),
    st.floats(min_value=-50, max_value=-1e-3),
)


@given(st.lists(clear_floats, min_size=1, max_size=5))
def test_selective_in_unit_interval(xs):
    v = selective_activation(np.array(xs)).item()
    assert 0.0 < v <= 1.0
    assert (v == 1.0) == all(x == 0.0 for x in xs)


@given(st.floats(min_value=0.01, max_value=40), st.floats(min_value=1.001, max_value=4))
def test_selective_monotone_decreasing_in_norm(r, scale):
    lo = selective_activation(np.array([r * scale])).item()
    hi = selective_activation(np.array([r])).item()
    assert lo < hi


def test_selective_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        selective_activation(np.zeros(2), epsilon=0.0)


# -- threshold activation --------------------------------------------------------


def test_threshold_values():
    assert threshold_activation(0.0).item() == pytest.approx(0.0)
    assert threshold_activation(1.0).item() == pytest.approx(math.tanh(1.0))
    assert threshold_activation(-1.0).item() == pytest.approx(math.tanh(-0.01))


@given(finite_floats)
def test_threshold_range(x):
    # tanh saturates to exactly 1.0 in float64 for large inputs
    v = threshold_activation(x).item()
    assert -1.0 <= v <= 1.0
    if x >= 0:
        assert v >= 0.0


# -- softmax -------------------------------------------------------------------


# -- float forms ----------------------------------------------------------------

# zeros of both signs, tiny, moderate and saturated inputs of both signs
FLOAT_GRID = [0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9, 0.3, -0.3, 1.0, -1.0,
              2.5, -2.5, 19.0, -19.0, 40.0, -40.0, 800.0, -800.0, 1e6, -1e6]


def assert_float_matches(got, want):
    """got is a float within rel 1e-15 of want; a zero keeps its sign."""
    assert type(got) is float
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)
    assert math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)


def test_float_forms_match_array_forms():
    xs = np.array(FLOAT_GRID)
    gates = tau(xs)
    for x, gate, slope in zip(FLOAT_GRID, gates, tau_slope(xs, gates)):
        assert_float_matches(tau_float(x), gate)
        assert_float_matches(tau_slope_float(x, float(gate)), slope)
    for a in FLOAT_GRID:
        for b in FLOAT_GRID:
            for got, want in zip(softmax2_float(a, b), softmax_values(np.array([a, b]))):
                assert_float_matches(got, want)
            loss, grads = cross_entropy2_float(a, b)
            want_loss, want_grads = cross_entropy_self_values(np.array([a, b]))
            assert_float_matches(loss, want_loss)
            for got, want in zip(grads, want_grads):
                assert_float_matches(got, want)
            # the label's entry is p - 1 <= 0 and the other p >= 0; with the
            # match above, which also holds the -1, this pins the label
            label = int(np.argmax([a, b]))
            assert grads[label] <= 0.0 <= grads[1 - label]


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.zeros(2)).values, [0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    out = softmax(np.array([1000.0, 0.0])).values
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_worked_example():
    np.testing.assert_allclose(
        softmax(np.array([1.0, 2.0, 3.0])).values,
        [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


@given(st.lists(finite_floats, min_size=1, max_size=6), finite_floats)
def test_softmax_sums_to_one_and_shift_invariant(logits, c):
    v = np.array(logits)
    a = softmax(v).values
    b = softmax(v + c).values
    assert abs(a.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(a - b)) <= 1e-9


# -- cross entropy against own argmax -------------------------------------------


def test_cel_confident_logits():
    assert cross_entropy_self(np.array([5.0, 0.0])).item() == pytest.approx(
        math.log(1 + math.exp(-5)), rel=1e-9)
    assert cross_entropy_self(np.array([0.0, 10.0])).item() == pytest.approx(
        math.log(1 + math.exp(-10)), rel=1e-9)


def test_cel_tie_resolves_to_lowest_index():
    z = parameter(np.array([1.5, 1.5]))
    loss = cross_entropy_self(z)
    assert loss.item() == pytest.approx(math.log(2.0))
    backward(loss)
    # label = index 0: gradient is softmax - onehot(0)
    np.testing.assert_allclose(z.grad, [-0.5, 0.5])


@given(st.lists(finite_floats, min_size=2, max_size=6))
def test_cel_nonnegative(logits):
    assert cross_entropy_self(np.array(logits)).item() >= 0.0


def test_cel_infimum_approached():
    assert cross_entropy_self(np.array([60.0, 0.0])).item() < 1e-20


# -- gradient oracle: central finite differences ----------------------------------


def numeric_grad(build_loss, param, step=1e-5):
    """Central-difference gradient of build_loss() w.r.t. one parameter tensor."""
    g = np.zeros_like(param.values)
    flat = param.values.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = build_loss().item()
        flat[i] = orig - step
        lo = build_loss().item()
        flat[i] = orig
        g.ravel()[i] = (hi - lo) / (2 * step)
    return g


def assert_grads_match(build_loss, params, rel=1e-4):
    zero_grads(params)
    backward(build_loss())
    for p in params:
        num = numeric_grad(build_loss, p)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(p.grad)), 1e-6)
        rel_err = np.abs(p.grad - num) / denom
        assert rel_err.max() <= rel, f"max rel err {rel_err.max():.3e}"


def _random_net(rng):
    """A small net that composes every layer; returns (params, build_loss)."""
    length = int(rng.integers(8, 16))
    dilation = int(rng.integers(1, 3))
    ksize = int(rng.integers(2, 4))
    x = DiffTensor(rng.normal(size=length))
    kernel = parameter(rng.normal(size=ksize) * 0.5)
    kbias = parameter(rng.normal() * 0.1)
    grid_kernel = parameter(rng.normal(size=(3, 3)) * 0.3)
    grid = DiffTensor(rng.normal(size=(4, 4)))
    w1_out = length - (ksize - 1) * dilation
    w1 = parameter(rng.normal(size=(3, w1_out)) * 0.4)
    b1 = parameter(rng.normal(size=3) * 0.1)

    def build_loss():
        conv_out = conv1d(x, kernel, bias=kbias, dilation=dilation)
        h = fully_connected(threshold_activation(conv_out), w1, b1)
        sel = selective_activation(h, 0.05)
        d = deconv3x3(grid, grid_kernel)
        pooled = total(threshold_activation(d)) * (1.0 / d.values.size)
        z = concat([sel, pooled, softmax(h) * 0.5])
        return cross_entropy_self(z) + sel * 0.3 + pooled * 0.2

    return [kernel, kbias, grid_kernel, w1, b1], build_loss


def test_gradient_oracle_random_compositions():
    rng = np.random.default_rng(1234)
    for _ in range(12):
        params, build_loss = _random_net(rng)
        assert sum(p.values.size for p in params) <= 200
        assert_grads_match(build_loss, params)


def test_two_layer_cel_grads_match_oracle():
    rng = np.random.default_rng(7)
    x = DiffTensor(rng.normal(size=4))
    w1 = parameter(rng.normal(size=(3, 4)))
    b1 = parameter(rng.normal(size=3))
    w2 = parameter(rng.normal(size=(2, 3)))
    b2 = parameter(rng.normal(size=2))

    def build_loss():
        h = threshold_activation(fully_connected(x, w1, b1))
        return cross_entropy_self(fully_connected(h, w2, b2))

    assert_grads_match(build_loss, [w1, b1, w2, b2])

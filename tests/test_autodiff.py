"""Engine-level checks: recording, backward, accumulation, SGD."""

import numpy as np
import pytest

import selfreward
from selfreward import autodiff, layers

from selfreward.autodiff import (
    DiffTensor,
    SgdSettings,
    backward,
    concat,
    gather,
    max_abs,
    mean,
    no_grad,
    parameter,
    scatter_constant,
    sgd_step,
    total,
)


def test_value_and_grad_share_shape():
    t = parameter(np.ones((3, 2)))
    assert t.grad.shape == t.values.shape
    s = DiffTensor(2.5)
    assert s.grad.shape == s.values.shape == ()


def test_square_loss_gradient():
    x = parameter(3.0)
    loss = x * x
    backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_loss_grad_wrt_itself_is_one():
    x = parameter(2.0)
    loss = x * x
    backward(loss)
    assert loss.grad == pytest.approx(1.0)


def test_backward_accumulates_until_cleared():
    x = parameter(3.0)
    backward(x * x)
    backward(x * x)
    assert x.grad == pytest.approx(12.0)
    x.zero_grad()
    backward(x * x)
    assert x.grad == pytest.approx(6.0)


def test_backward_rejects_non_scalar():
    x = parameter(np.array([1.0, 2.0]))
    y = x * x
    with pytest.raises(ValueError):
        backward(y)


def test_shared_subexpression_counted_once_per_use():
    # loss = (x*y) + (x*y) uses the same node twice via two ops
    x = parameter(2.0)
    y = parameter(5.0)
    p = x * y
    loss = p + p
    backward(loss)
    assert x.grad == pytest.approx(10.0)
    assert y.grad == pytest.approx(4.0)


def test_no_grad_region_contributes_no_entries():
    x = parameter(4.0)
    with no_grad():
        frozen = x * x  # acts as a plain constant downstream
    assert frozen._op is None and not frozen.requires_grad
    loss = x * frozen
    backward(loss)
    assert x.grad == pytest.approx(16.0)  # d(16 x)/dx, not d(x^3)/dx


def test_repeated_backward_through_shared_graph_is_fresh():
    # second pass must not re-propagate first-pass leftovers
    x = parameter(2.0)
    a = x * x
    loss1 = a * 3.0
    loss2 = a * 5.0
    backward(loss1)
    backward(loss2)
    assert x.grad == pytest.approx((3.0 + 5.0) * 2 * 2.0)


def test_concat_and_mean_roundtrip_grads():
    a = parameter(1.0)
    b = parameter(np.array([2.0, 3.0]))
    v = concat([a, b])
    assert v.values.tolist() == [1.0, 2.0, 3.0]
    backward(mean(v))
    assert a.grad == pytest.approx(1 / 3)
    np.testing.assert_allclose(b.grad, [1 / 3, 1 / 3])


def test_total_grad():
    w = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    backward(total(w * w))
    np.testing.assert_allclose(w.grad, 2 * w.values)


def test_gather_scatter_gradient_flow():
    g = parameter(np.arange(9.0).reshape(3, 3))
    masked = scatter_constant(g, [(1, 1)], 99.0)
    assert masked.values[1, 1] == 99.0
    picked = gather(masked, [(0, 0), (1, 1), (2, 2)])
    backward(total(picked))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    expected[2, 2] = 1.0  # (1,1) was overwritten by a constant: no gradient
    np.testing.assert_allclose(g.grad, expected)


def test_gather_repeated_position_accumulates():
    g = parameter(np.ones((2, 2)))
    picked = gather(g, [(0, 1), (0, 1)])
    backward(total(picked))
    assert g.grad[0, 1] == pytest.approx(2.0)


def test_max_abs_is_plain_float():
    g = parameter(np.array([[1.0, -7.0], [2.0, 0.0]]))
    assert max_abs(g) == 7.0
    assert isinstance(max_abs(g), float)


def test_sgd_step_updates_and_zeroes():
    p = parameter(1.0)
    p.grad[...] = 2.0
    sgd_step([p], SgdSettings(learning_rate=0.1))
    assert p.values == pytest.approx(0.8)
    assert p.grad == pytest.approx(0.0)


def test_sgd_step_no_grad_leaves_value():
    p = parameter(1.5)
    sgd_step([p], SgdSettings(learning_rate=0.1))
    assert p.values == pytest.approx(1.5)


def test_graph_recorded_before_sgd_step_keeps_its_values():
    p = parameter(2.0)
    squared = p * p  # recorded at p = 2
    backward(p * 1.0)
    sgd_step([p], SgdSettings(learning_rate=1.0))  # p: 2 -> 1
    assert p.values == pytest.approx(1.0)
    backward(squared)
    assert p.grad == pytest.approx(4.0)  # d(p*p)/dp at the recorded p = 2


def test_sgd_settings_validation():
    with pytest.raises(ValueError):
        SgdSettings(learning_rate=0.0)
    with pytest.raises(ValueError):
        SgdSettings(learning_rate=-1e-3)


def test_sgd_descends_convex_quadratic():
    theta = parameter(np.array([1.0, -2.0, 0.5]))
    losses = []
    for _ in range(50):
        loss = total(theta * theta)
        losses.append(loss.item())
        backward(loss)
        sgd_step([theta], SgdSettings(learning_rate=0.1))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_package_exports_every_name_from_its_module():
    for name in selfreward.__all__:
        home = autodiff if hasattr(autodiff, name) else layers
        assert getattr(selfreward, name) is getattr(home, name), name
    assert selfreward.backward is autodiff.backward
    assert selfreward.ShapeError is autodiff.ShapeError is layers.ShapeError
    namespace = {}
    exec("from selfreward import *", namespace)
    assert set(selfreward.__all__) <= namespace.keys()
    assert set(selfreward.__all__) <= set(dir(selfreward))


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'backwards'"):
        getattr(selfreward, "backwards")


def test_package_export_follows_a_rebinding_in_its_module(monkeypatch):
    original = autodiff.backward
    sentinel = object()
    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "backward", sentinel)
        assert selfreward.backward is sentinel
    assert selfreward.backward is original
    assert "backward" not in vars(selfreward)

"""The recorded ops: each neuron formula with a vjp for the engine.

A dilated 1-D convolution, a dense layer, ``deconv3x3``, the match detector
``selective_activation``, the threshold gate ``threshold_activation``,
``softmax`` and the self-labelled loss ``cross_entropy_self`` record
themselves on the engine's graph.  Each computes its values through the
engine-free formula in ``neurons`` (``deconv_shifts``, ``selective_core``,
``tau`` and ``tau_slope``, ``softmax_values``, ``cross_entropy_self_values``)
and adds only the local gradient rule.  No CLI command runs on these: they
are the reference the tests check each scenario's closed-form gradients
against (fish1d's graph forms are built from them), and the public API,
demo 01 and the benchmark's micro tier use them.
"""

from __future__ import annotations

import numpy as np

from .autodiff import DiffTensor, as_tensor, record
from .neurons import (
    DEFAULT_EPSILON,
    ShapeError,
    cross_entropy_self_values,
    deconv_shifts,
    selective_core,
    softmax_values,
    tau,
    tau_slope,
)


def conv1d(x, kernel, bias=None, dilation: int = 1) -> DiffTensor:
    """Valid 1-D convolution: out[i] = sum_j kernel[j] * x[i + j*dilation] + bias."""
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    if x.values.ndim != 1 or kernel.values.ndim != 1:
        raise ShapeError(f"conv1d: expected vectors, got {x.shape} and {kernel.shape}")
    length, ksize = x.values.size, kernel.values.size
    n_out = length - (ksize - 1) * dilation
    if n_out < 1:
        raise ShapeError(
            f"conv1d: input {x.shape} too short for kernel {kernel.shape} "
            f"with dilation {dilation}")

    windows = np.stack([x.values[j * dilation: j * dilation + n_out]
                        for j in range(ksize)])
    out = kernel.values @ windows
    inputs = [x, kernel]
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.values
        inputs.append(bias)
    xv, kv = x.values, kernel.values

    def vjp(g):
        gx = np.zeros_like(xv)
        for j in range(ksize):
            gx[j * dilation: j * dilation + n_out] += kv[j] * g
        gk = windows @ g
        if bias is None:
            return gx, gk
        gb = np.asarray(g.sum()).reshape(bias.shape) if bias.shape else np.asarray(g.sum())
        return gx, gk, gb

    return record(out, tuple(inputs), vjp)


def fully_connected(x, weight, bias) -> DiffTensor:
    """Dense layer W @ x + b."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    n, m = weight.values.shape
    if x.values.shape != (m,) or bias.values.shape != (n,):
        raise ShapeError(
            f"fully_connected: W {weight.shape} needs x ({m},) and b ({n},), "
            f"got x {x.shape}, b {bias.shape}")
    out = weight.values @ x.values + bias.values
    xv, wv = x.values, weight.values

    def vjp(g):
        return wv.T @ g, np.outer(g, xv), g

    return record(out, (x, weight, bias), vjp)


def deconv3x3(grid, kernel) -> DiffTensor:
    """Shape-preserving 3x3 transposed convolution, unit stride.

    Every input cell deposits the kernel centered on itself; deposits that
    fall outside the grid are dropped, so output shape equals input shape.
    """
    grid = as_tensor(grid)
    kernel = as_tensor(kernel)
    if grid.values.ndim != 2:
        raise ShapeError(f"deconv3x3: expected a 2-D grid, got {grid.shape}")
    if kernel.values.shape != (3, 3):
        raise ShapeError(f"deconv3x3: kernel must be (3, 3), got {kernel.shape}")
    shifts = deconv_shifts(*grid.values.shape)
    gv, kv = grid.values, kernel.values

    out = np.zeros_like(gv)
    for ky, kx, dst, src in shifts:
        out[dst] += kv[ky, kx] * gv[src]

    def vjp(g):
        ggrid = np.zeros_like(gv)
        gkernel = np.zeros((3, 3))
        for ky, kx, dst, src in shifts:
            ggrid[src] += kv[ky, kx] * g[dst]
            gkernel[ky, kx] = (gv[src] * g[dst]).sum()
        return ggrid, gkernel

    return record(out, (grid, kernel), vjp)


def selective_activation(x, epsilon: float = DEFAULT_EPSILON) -> DiffTensor:
    """Match detector eps / (||x||^2 + eps): 1 exactly at x = 0."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = as_tensor(x)
    sq = float(np.sum(x.values * x.values))
    out = np.asarray(selective_core(sq, epsilon))
    xv = x.values
    denom = (sq + epsilon) ** 2

    def vjp(g):
        return (float(g) * (-2.0 * epsilon / denom) * xv,)

    return record(out, (x,), vjp)


def threshold_activation(x) -> DiffTensor:
    """The threshold gate ``tau``."""
    x = as_tensor(x)
    out = tau(x.values)
    local = tau_slope(x.values, out)

    def vjp(g):
        return (g * local,)

    return record(out, (x,), vjp)


def softmax(v) -> DiffTensor:
    """``softmax_values`` of v."""
    v = as_tensor(v)
    out = softmax_values(v.values)

    def vjp(g):
        return (out * (g - float(g @ out)),)

    return record(out, (v,), vjp)


def cross_entropy_self(z) -> DiffTensor:
    """-log softmax(z)[argmax(z)]; the label index carries no gradient.

    Ties resolve to the lowest index, matching every other argmax here.
    """
    z = as_tensor(z)
    loss, gz = cross_entropy_self_values(z.values)

    def vjp(g):
        return (float(g) * gz,)

    return record(np.asarray(loss), (z,), vjp)

"""The neuron formulas the controllers are built from, once each.

Each formula is written once as a plain-array function: the match
detector ``selective_core`` (eps / (r + eps), 1 exactly on a zero squared
residual), the threshold gate ``tau`` (a monotone saturating tanh after a
leaky rectifier) and its slope ``tau_slope``, ``softmax_values``, the
self-labelled loss ``cross_entropy_self_values``, and the nine shifted terms
of a 3x3 transposed convolution, ``deconv_shifts``.  The scenarios run on
these directly.  The recorded ops (a dilated 1-D convolution, a dense layer,
``deconv3x3``, the activations and the loss) compute their values through
the same functions and add a vjp for the engine, which the tests use as the
reference for each scenario's closed-form gradients.

A controller as small as the fish works on a handful of Python floats, where
a numpy call costs more than its arithmetic.  So the gate, its slope and the
two-way softmax and loss also have float forms, ``tau_float``,
``tau_slope_float``, ``softmax2_float`` and ``cross_entropy2_float``, written
beside their array forms with the same branch and the same order of
operations; ``selective_core`` takes floats as it is.  A float form differs
from its array form only where ``math.tanh``, ``math.exp`` and ``math.log``
round differently from numpy's, in the last bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .autodiff import DiffTensor, ShapeError, as_tensor, record

DEFAULT_EPSILON = 0.01
LEAK_SLOPE = 0.01


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


@functools.lru_cache(maxsize=64)
def deconv_shifts(h: int, w: int) -> tuple:
    """The nine terms of a 3x3 transposed convolution on an h x w grid.

    Each term ``(ky, kx, dst, src)`` adds ``kernel[ky, kx] * grid[src]`` into
    ``out[dst]``; ``dst`` and ``src`` are (row slice, column slice) pairs and
    deposits that would fall outside the grid are dropped.  The terms come in
    accumulation order, which fixes the rounding of every output cell.
    """
    terms = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            dst = (slice(max(dy, 0), h + min(dy, 0)), slice(max(dx, 0), w + min(dx, 0)))
            src = (slice(max(-dy, 0), h + min(-dy, 0)), slice(max(-dx, 0), w + min(-dx, 0)))
            terms.append((1 + dy, 1 + dx, dst, src))
    return tuple(terms)


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


def selective_core(sq_residual, epsilon: float):
    """eps / (r + eps) on squared residuals, a plain array or a float."""
    return epsilon / (sq_residual + epsilon)


def tau(x: np.ndarray) -> np.ndarray:
    """Threshold gate: tanh(x) for x >= 0, tanh(LEAK_SLOPE * x) below."""
    return np.tanh(np.where(x >= 0, x, LEAK_SLOPE * x))


def tau_slope(x: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """tau'(x), given gates = tau(x)."""
    return (1.0 - gates * gates) * np.where(x >= 0, 1.0, LEAK_SLOPE)


def softmax_values(v: np.ndarray) -> np.ndarray:
    """Probability vector, computed with max-subtraction for stability."""
    e = np.exp(v - v.max())
    return e / e.sum()


def tau_float(x: float) -> float:
    """``tau`` of one float."""
    return math.tanh(x if x >= 0 else LEAK_SLOPE * x)


def tau_slope_float(x: float, gate: float) -> float:
    """``tau_slope`` of one float, given gate = tau_float(x)."""
    return (1.0 - gate * gate) * (1.0 if x >= 0 else LEAK_SLOPE)


def softmax2_float(a: float, b: float) -> tuple[float, float]:
    """``softmax_values`` of the two floats (a, b)."""
    top = a if a >= b else b
    ea, eb = math.exp(a - top), math.exp(b - top)
    total = ea + eb
    return ea / total, eb / total


def cross_entropy2_float(z0: float, z1: float) -> tuple[float, tuple[float, float]]:
    """``cross_entropy_self_values`` of the two floats (z0, z1): the loss and
    (g0, g1); a tie takes label 0, as ``np.argmax`` does."""
    top = z0 if z0 >= z1 else z1
    lse = top + math.log(math.exp(z0 - top) + math.exp(z1 - top))
    g0, g1 = math.exp(z0 - lse), math.exp(z1 - lse)
    if z0 >= z1:
        return lse - z0, (g0 - 1.0, g1)
    return lse - z1, (g0, g1 - 1.0)


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


def cross_entropy_self_values(z: np.ndarray) -> tuple[float, np.ndarray]:
    """cross_entropy_self on a plain array: (loss, softmax(z) - onehot(argmax z))."""
    label = int(np.argmax(z))
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    gz = np.exp(z - lse)
    gz[label] -= 1.0
    return float(lse - z[label]), gz

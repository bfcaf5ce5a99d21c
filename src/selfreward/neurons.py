"""The neuron formulas the controllers are built from, once each, engine-free.

Each formula is written once as a plain-array function: the match
detector ``selective_core`` (eps / (r + eps), 1 exactly on a zero squared
residual), the threshold gate ``tau`` (a monotone saturating tanh after a
leaky rectifier) and its slope ``tau_slope``, ``softmax_values``, the
self-labelled loss ``cross_entropy_self_values``, and the nine shifted terms
of a 3x3 transposed convolution, ``deconv_shifts``.  The scenarios run on
these directly (the auction's fine-tuning takes its loss from
``cross_entropy_self_values``, a row per learner), and this module imports
nothing but numpy, so a scenario that uses them never loads the engine.  The
recorded ops in ``layers`` compute their values through the same functions
and add a vjp, and the tests use them as the reference for each scenario's
closed-form gradients.

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

DEFAULT_EPSILON = 0.01
LEAK_SLOPE = 0.01


class ShapeError(ValueError):
    """Operand shapes disagree; message names both shapes."""


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


def cross_entropy_self_values(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cross_entropy_self of each row of z (..., k): the losses (...) and
    softmax(z) - onehot(argmax z), a tie going to the first of its entries."""
    rows = z.reshape(-1, z.shape[-1])
    at, label = np.arange(len(rows)), rows.argmax(axis=1)
    top = rows.max(axis=1, keepdims=True)
    lse = top + np.log(np.exp(rows - top).sum(axis=1, keepdims=True))
    gz = np.exp(rows - lse)
    gz[at, label] -= 1.0
    return (lse[:, 0] - rows[at, label]).reshape(z.shape[:-1]), gz.reshape(z.shape)

"""Reverse-mode differentiation engine for very small dense networks.

A ``DiffTensor`` wraps a float64 numpy array together with an accumulated
gradient.  While recording is active, every operation that touches a tensor
requiring gradients appends itself to the implicit computation record (an
``OpRecord`` chain hanging off each output), so a later ``backward`` call can
walk the record in reverse topological order.

The engine is sized for controllers with at most a few hundred parameters:
no broadcasting beyond scalars, no batching, no GPU.  Regions wrapped in
``no_grad()`` contribute no record entries; values produced there behave as
plain constants downstream.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .neurons import ShapeError

_RECORDING = True


@contextlib.contextmanager
def no_grad():
    """Suspend recording: everything inside is treated as a constant."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


class OpRecord:
    """One recorded operation: inputs, output, and a local-gradient rule.

    ``vjp`` maps the gradient at the output to a tuple of gradients aligned
    with ``inputs`` (``None`` for inputs that need no gradient).
    """

    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class DiffTensor:
    """Value plus accumulated gradient of identical shape."""

    __slots__ = ("values", "requires_grad", "_grad", "_op")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._op = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"DiffTensor({self.values!r}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __neg__(self):
        return mul(self, as_tensor(-1.0))


def as_tensor(value) -> DiffTensor:
    """Coerce floats/arrays to constant tensors; pass tensors through."""
    if isinstance(value, DiffTensor):
        return value
    return DiffTensor(value)


def parameter(values) -> DiffTensor:
    """A tensor that collects gradients (trainable weight)."""
    return DiffTensor(values, requires_grad=True)


def record(out_values: np.ndarray, inputs: Sequence[DiffTensor],
           vjp: Callable) -> DiffTensor:
    """Create the output tensor of an op, recording it when appropriate."""
    if _RECORDING and any(t.requires_grad for t in inputs):
        out = DiffTensor(out_values, requires_grad=True)
        out._op = OpRecord(tuple(inputs), out, vjp)
        return out
    return DiffTensor(out_values)


def _check_same_shape(a: DiffTensor, b: DiffTensor, op: str) -> None:
    # scalars combine freely with anything; everything else must match
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not agree")


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # gradient of a scalar operand used against an array: sum it back down
    if shape == () and grad.shape != ():
        return np.asarray(grad.sum())
    return grad


# -- elementwise primitives --------------------------------------------------


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    _check_same_shape(a, b, "add")
    out = a.values + b.values

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return record(out, (a, b), vjp)


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    _check_same_shape(a, b, "sub")
    out = a.values - b.values

    def vjp(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return record(out, (a, b), vjp)


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    _check_same_shape(a, b, "mul")
    out = a.values * b.values
    av, bv = a.values, b.values

    def vjp(g):
        return _reduce_to(g * bv, a.shape), _reduce_to(g * av, b.shape)

    return record(out, (a, b), vjp)


def div(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    _check_same_shape(a, b, "div")
    out = a.values / b.values
    av, bv = a.values, b.values

    def vjp(g):
        return (_reduce_to(g / bv, a.shape),
                _reduce_to(-g * av / (bv * bv), b.shape))

    return record(out, (a, b), vjp)


def tanh(a: DiffTensor) -> DiffTensor:
    out = np.tanh(a.values)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return record(out, (a,), vjp)


def square(a: DiffTensor) -> DiffTensor:
    out = a.values * a.values
    av = a.values

    def vjp(g):
        return (g * 2.0 * av,)

    return record(out, (a,), vjp)


def total(a: DiffTensor) -> DiffTensor:
    """Sum of all entries, as a scalar tensor."""
    out = np.asarray(a.values.sum())
    shape = a.values.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return record(out, (a,), vjp)


def mean(a: DiffTensor) -> DiffTensor:
    """Mean of all entries, as a scalar tensor."""
    n = a.values.size
    out = np.asarray(a.values.sum() / n)
    shape = a.values.shape

    def vjp(g):
        return (np.full(shape, float(g) / n),)

    return record(out, (a,), vjp)


def concat(parts: Iterable[DiffTensor]) -> DiffTensor:
    """Join scalars/vectors into one vector."""
    parts = tuple(parts)
    arrays = [np.atleast_1d(p.values) for p in parts]
    sizes = [arr.size for arr in arrays]
    out = np.concatenate(arrays)
    shapes = [p.shape for p in parts]

    def vjp(g):
        grads = []
        offset = 0
        for size, shape in zip(sizes, shapes):
            piece = g[offset:offset + size]
            grads.append(piece.reshape(shape) if shape else np.asarray(piece[0]))
            offset += size
        return tuple(grads)

    return record(out, parts, vjp)


def pick(vec: DiffTensor, index: int) -> DiffTensor:
    """One entry of a vector, as a scalar tensor."""
    out = np.asarray(vec.values[index])
    size = vec.values.shape

    def vjp(g):
        gg = np.zeros(size)
        gg[index] = float(g)
        return (gg,)

    return record(out, (vec,), vjp)


def gather(grid: DiffTensor, positions: Sequence[tuple]) -> DiffTensor:
    """Read grid entries at (row, col) positions into a vector."""
    rows = np.array([p[0] for p in positions], dtype=np.intp)
    cols = np.array([p[1] for p in positions], dtype=np.intp)
    out = grid.values[rows, cols]
    shape = grid.values.shape

    def vjp(g):
        gg = np.zeros(shape)
        np.add.at(gg, (rows, cols), g)
        return (gg,)

    return record(out, (grid,), vjp)


def scatter_constant(grid: DiffTensor, positions: Sequence[tuple],
                     value: float) -> DiffTensor:
    """Copy of grid with the given positions replaced by a plain constant.

    The replaced entries carry no gradient; everything else passes through.
    """
    rows = np.array([p[0] for p in positions], dtype=np.intp)
    cols = np.array([p[1] for p in positions], dtype=np.intp)
    out = grid.values.copy()
    out[rows, cols] = value

    def vjp(g):
        gg = g.copy()
        gg[rows, cols] = 0.0
        return (gg,)

    return record(out, (grid,), vjp)


def max_abs(a: DiffTensor) -> float:
    """Largest absolute entry as a plain float (never recorded)."""
    return float(np.max(np.abs(a.values))) if a.values.size else 0.0


# -- backward pass and optimizer ----------------------------------------------


def backward(loss: DiffTensor) -> None:
    """Populate ``grad`` of every recorded tensor reachable from ``loss``.

    Gradients are accumulated: repeated calls add up until the caller zeroes
    them (``sgd_step`` does).  Propagation itself uses fresh per-call buffers
    so earlier leftovers cannot contaminate a new pass.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward() expects a scalar loss, got shape {loss.shape}")

    order: list[OpRecord] = []
    seen: set[int] = set()
    stack: list[tuple[DiffTensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        rec = node._op
        if rec is None or (id(rec) in seen and not expanded):
            continue
        if expanded:
            order.append(rec)
            continue
        seen.add(id(rec))
        stack.append((node, True))
        for parent in rec.inputs:
            if parent._op is not None and id(parent._op) not in seen:
                stack.append((parent, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    touched: dict[int, DiffTensor] = {id(loss): loss}
    for rec in reversed(order):
        g_out = flowing.get(id(rec.output))
        if g_out is None:
            continue
        for parent, g in zip(rec.inputs, rec.vjp(g_out)):
            if g is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + g
            else:
                flowing[key] = g
                touched[key] = parent

    for key, tensor in touched.items():
        if tensor.requires_grad:
            # asarray: 0-d arithmetic can yield numpy scalars, grads stay arrays
            tensor._grad = np.asarray(tensor.grad + flowing[key])


@dataclass
class SgdSettings:
    """Plain stochastic gradient descent configuration."""

    learning_rate: float

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


def sgd_step(params: Iterable[DiffTensor], settings: SgdSettings) -> None:
    """values <- values - lr * grad, then zero the grads.

    ``values`` is rebound to a new array, never written in place: local
    gradient rules hold the arrays they were recorded with, so a graph
    recorded before a step still backpropagates at its recorded values.
    """
    for p in params:
        if p._grad is not None:
            p.values = p.values - settings.learning_rate * np.asarray(p._grad)
            p._grad = None


def zero_grads(params: Iterable[DiffTensor]) -> None:
    for p in params:
        p.zero_grad()

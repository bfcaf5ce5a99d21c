"""Micro tier: each engine op timed alone at the shapes the scenarios use.

``fwd_us`` is one forward call with trainable inputs (so the op records
itself, as it does in training).  ``fwdbwd_us`` adds ``backward`` from the
op's output, summed to a scalar with ``autodiff.total`` where the op is not
scalar-valued.  Each shape is warmed first, then timed in several batches;
the figure for a shape is the median batch mean, and the figure for an op
is the mean over its shapes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _cases():
    """op name -> list of (shape label, call), with all inputs built once."""
    from selfreward import autodiff as ad
    from selfreward import layers

    rng = np.random.default_rng(0)

    def param(*shape):
        return ad.parameter(rng.uniform(-1.0, 1.0, size=shape))

    def const(*shape):
        return ad.as_tensor(rng.uniform(-1.0, 1.0, size=shape))

    def bind(fn, *args, **kwargs):
        return lambda: fn(*args, **kwargs)

    return {
        "conv1d": [
            ("fish detector 3 by 3 + bias", bind(layers.conv1d, param(3), const(3), const())),
            ("fish judge row 5 by 5", bind(layers.conv1d, param(5), const(5))),
            ("auction sensor 40 by 8 dilation 5",
             bind(layers.conv1d, param(40), const(8), dilation=5)),
        ],
        "fully_connected": [
            ("fish action 2x3", bind(layers.fully_connected, const(3), param(2, 3), param(2))),
            ("auction decision 3x4",
             bind(layers.fully_connected, const(4), param(3, 4), param(3))),
            ("auction judge gates 3x7",
             bind(layers.fully_connected, param(7), const(3, 7), const(3))),
        ],
        "deconv3x3": [
            ("lavaland 12x12", bind(layers.deconv3x3, const(12, 12), param(3, 3))),
        ],
        "selective_activation": [
            ("fish detector (1,)", bind(layers.selective_activation, param(1), 0.01)),
        ],
        "threshold_activation": [
            ("fish gate (1,)", bind(layers.threshold_activation, param(1))),
            ("auction gates (3,)", bind(layers.threshold_activation, param(3))),
        ],
        "softmax": [
            ("fish logits (2,)", bind(layers.softmax, param(2))),
        ],
        "cross_entropy_self": [
            ("judge z (2,)", bind(layers.cross_entropy_self, param(2))),
        ],
    }


def _time_per_call(fn, budget_s: float, batches: int = 5) -> float:
    """Median over batches of the mean seconds per call."""
    for _ in range(20):
        fn()
    start = time.perf_counter()
    fn()
    estimate = max(time.perf_counter() - start, 1e-7)
    reps = max(20, int(budget_s / batches / estimate))
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        means.append((time.perf_counter() - start) / reps)
    return statistics.median(means)


def measure(budget_s: float = 0.05) -> tuple[dict, list[dict]]:
    """(metric name -> µs, per-shape rows) for every op in the micro tier."""
    from selfreward import autodiff as ad

    metrics, rows = {}, []
    for op, shapes in _cases().items():
        fwd, fwdbwd = [], []
        for label, call in shapes:
            def step(call=call):
                out = call()
                ad.backward(out if out.values.size == 1 else ad.total(out))

            f_us = _time_per_call(call, budget_s) * 1e6
            fb_us = _time_per_call(step, budget_s) * 1e6
            fwd.append(f_us)
            fwdbwd.append(fb_us)
            rows.append({"op": op, "shape": label, "fwd_us": f_us, "fwdbwd_us": fb_us})
        metrics[f"layers.{op}.fwd_us"] = statistics.fmean(fwd)
        metrics[f"layers.{op}.fwdbwd_us"] = statistics.fmean(fwdbwd)
    return metrics, rows

"""Interpretable hand-designed neural controllers with self-reward fine-tuning.

Every weight in these controllers has a stated meaning; training nudges them
with a loss the controller computes about its own decisions.  Three worked
scenarios live here: a 1-D foraging fish, a multi-agent fish-sale auction,
and a 2-D tile-world navigator with imagination rollouts.

The package re-exports the reference engine (``autodiff`` and the recorded
ops of ``layers``) lazily, by a module ``__getattr__`` (PEP 562): importing
the package, or a scenario that never records a graph, does not load it.
Each lookup reads the attribute from its module afresh and is never cached
here, so rebinding a name in its module rebinds it here too.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "DiffTensor": "autodiff",
    "OpRecord": "autodiff",
    "SgdSettings": "autodiff",
    "ShapeError": "neurons",
    "backward": "autodiff",
    "no_grad": "autodiff",
    "parameter": "autodiff",
    "sgd_step": "autodiff",
    "conv1d": "layers",
    "cross_entropy_self": "layers",
    "deconv3x3": "layers",
    "fully_connected": "layers",
    "selective_activation": "layers",
    "softmax": "layers",
    "threshold_activation": "layers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})

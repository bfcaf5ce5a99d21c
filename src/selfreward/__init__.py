"""Interpretable hand-designed neural controllers with self-reward fine-tuning.

Every weight in these controllers has a stated meaning; training nudges them
with a loss the controller computes about its own decisions.  Three worked
scenarios live here: a 1-D foraging fish, a multi-agent fish-sale auction,
and a 2-D tile-world navigator with imagination rollouts.
"""

__version__ = "0.1.0"

from .autodiff import (
    DiffTensor,
    OpRecord,
    SgdSettings,
    ShapeError,
    backward,
    no_grad,
    parameter,
    sgd_step,
    zero_grads,
)
from .layers import (
    conv1d,
    cross_entropy_self,
    deconv3x3,
    fully_connected,
    selective_activation,
    softmax,
    threshold_activation,
)

__all__ = [
    "DiffTensor",
    "OpRecord",
    "SgdSettings",
    "ShapeError",
    "backward",
    "no_grad",
    "parameter",
    "sgd_step",
    "zero_grads",
    "conv1d",
    "cross_entropy_self",
    "deconv3x3",
    "fully_connected",
    "selective_activation",
    "softmax",
    "threshold_activation",
]

"""Numerically-stable activations for LSTM gates.

The LSTM cell (paper Fig. 4) uses the logistic sigmoid for the input,
forget and output gates and ``tanh`` for the candidate gate and cell
output.  Derivatives are expressed *from the activation output* — during
BPTT we always have ``y = act(x)`` cached, so ``d act/dx`` computed from
``y`` avoids a second exponential evaluation (see the HPC guide's advice
to compute less, not just faster).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "dsigmoid_from_y",
    "dtanh_from_y",
    "drelu_from_x",
]

# exp() overflows float64 past ~709; clipping at 60 keeps sigmoid exact to
# machine precision (sigmoid(60) == 1.0 in float64) without warnings.
_CLIP = 60.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Element-wise logistic sigmoid, stable for large |x|."""
    # ndarray.clip is what np.clip calls, minus two Python wrappers.
    z = np.asarray(x).clip(-_CLIP, _CLIP)
    return 1.0 / (1.0 + np.exp(-z))


def tanh(x: np.ndarray) -> np.ndarray:
    """Element-wise hyperbolic tangent (numpy's is already stable)."""
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit (used by the dense head option)."""
    return np.maximum(x, 0.0)


def dsigmoid_from_y(y: np.ndarray) -> np.ndarray:
    """sigmoid'(x) given y = sigmoid(x):  y * (1 - y)."""
    return y * (1.0 - y)


def dtanh_from_y(y: np.ndarray) -> np.ndarray:
    """tanh'(x) given y = tanh(x):  1 - y**2."""
    return 1.0 - y * y


def drelu_from_x(x: np.ndarray) -> np.ndarray:
    """relu'(x) (subgradient 0 at the kink)."""
    return (x > 0.0).astype(x.dtype)

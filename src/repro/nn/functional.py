"""Differentiable operations built on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.backend import active_backend
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled


# Each activation's forward on a plain array.  The Tensor ops below call
# them, and the layers' ndarray inference methods (repro.nn.layers) call
# them directly, so both paths run the same numpy ops.
def relu_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu_array(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0, x, negative_slope * x)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    # Numerically stable logistic: never exponentiates a large positive value.
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
        np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))),
    )


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = relu_array(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (x.data > 0))

    out = Tensor._make(data, (x,), backward)
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    x = as_tensor(x)
    data = leaky_relu_array(x.data, negative_slope)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * np.where(x.data > 0, 1.0, negative_slope))

    out = Tensor._make(data, (x,), backward)
    return out


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (1.0 - data**2))

    out = Tensor._make(data, (x,), backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = sigmoid_array(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * data * (1.0 - data))

    out = Tensor._make(data, (x,), backward)
    return out


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * data)

    out = Tensor._make(data, (x,), backward)
    return out


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad / x.data)

    out = Tensor._make(data, (x,), backward)
    return out


def sqrt(x: Tensor) -> Tensor:
    return x**0.5


def cos(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.cos(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, -grad * np.sin(x.data))

    out = Tensor._make(data, (x,), backward)
    return out


def sin(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.sin(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * np.cos(x.data))

    out = Tensor._make(data, (x,), backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm

    def backward(grad: np.ndarray) -> None:
        softmax_vals = np.exp(data)
        out._send(x, grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    out = Tensor._make(data, (x,), backward)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    data = expd / expd.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * data).sum(axis=axis, keepdims=True)
        out._send(x, data * (grad - inner))

    out = Tensor._make(data, (x,), backward)
    return out


def dropout(
    x: Tensor,
    p: float,
    rng: Optional[np.random.Generator] = None,
    training: bool = True,
) -> Tensor:
    """Inverted dropout: zero entries with prob. ``p`` and rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return as_tensor(x)
    if rng is None:
        rng = np.random.default_rng()
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * mask)

    out = Tensor._make(x.data * mask, (x,), backward)
    return out


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradients.

    The gather and the gradient scatter route through the active array
    backend (:mod:`repro.nn.backend`); the scatter stays serial on every
    in-tree backend because float accumulation order is part of
    bit-identity.
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices, dtype=np.int64)
    data = active_backend().take(weight.data, idx)

    def backward(grad: np.ndarray) -> None:
        kernels = active_backend()
        full = kernels.zeros_like(weight.data)
        kernels.scatter_add(full, idx, grad)
        out._send(weight, full)

    out = Tensor._make(data, (weight,), backward)
    return out


def gather_rows(x: Tensor, column_indices: np.ndarray) -> Tensor:
    """Pick ``x[i, column_indices[i]]`` for each row ``i`` of a 2-D tensor."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"gather_rows expects a 2-D tensor, got shape {x.shape}")
    cols = np.asarray(column_indices, dtype=np.int64)
    rows = np.arange(x.shape[0])
    data = x.data[rows, cols]

    def backward(grad: np.ndarray) -> None:
        kernels = active_backend()
        full = kernels.zeros_like(x.data)
        kernels.scatter_add(full, (rows, cols), grad)
        out._send(x, full)

    out = Tensor._make(data, (x,), backward)
    return out


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set entries where ``mask`` is True to a constant ``value``."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (~mask))

    out = Tensor._make(data, (x,), backward)
    return out


def layer_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last axis (Ba et al., 2016).

    Composed from differentiable primitives, so its gradient is exact by
    construction.
    """
    x = as_tensor(x)
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * ((var + eps) ** -0.5)
    return normalized * gamma + beta


def clip_values(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to [low, high]; gradient is 1 inside the interval, 0 outside."""
    x = as_tensor(x)
    data = np.clip(x.data, low, high)

    def backward(grad: np.ndarray) -> None:
        inside = (x.data >= low) & (x.data <= high)
        out._send(x, grad * inside)

    out = Tensor._make(data, (x,), backward)
    return out


def batched_mean_with_mask(x: Tensor, mask: np.ndarray, axis: int = 1) -> Tensor:
    """Mean over ``axis`` counting only positions where ``mask`` is True.

    ``mask`` has the shape of ``x`` without the feature axis; rows with no
    valid positions yield zeros (not NaN), matching how TGNNs treat nodes
    with no historical neighbours.
    """
    x = as_tensor(x)
    mask_f = np.asarray(mask, dtype=x.dtype)
    counts = mask_f.sum(axis=axis, keepdims=True)
    safe_counts = np.maximum(counts, 1.0)
    weights = mask_f / safe_counts
    expanded = np.expand_dims(weights, -1) if x.ndim == mask_f.ndim + 1 else weights
    return (x * expanded).sum(axis=axis)


__all__ = [
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "relu_array",
    "leaky_relu_array",
    "sigmoid_array",
    "exp",
    "log",
    "sqrt",
    "cos",
    "sin",
    "softmax",
    "log_softmax",
    "dropout",
    "embedding",
    "gather_rows",
    "masked_fill",
    "layer_norm",
    "clip_values",
    "batched_mean_with_mask",
    "is_grad_enabled",
]

"""Neural-network module system: parameter containers and common layers.

Layer forward/backward passes reduce to ``Tensor.__matmul__``, which
dispatches GEMM through the active array backend (:mod:`repro.nn.backend`)
— the ``blas-threaded`` backend runs the same kernels with a raised BLAS
thread count, bit-identically.

:class:`Linear`, :class:`MLP` and :class:`LayerNorm` also have an
``infer`` method: the eval-mode forward on plain ndarrays, with no graph.
It runs the Tensor forward's numpy ops in the same order and casts every
result to the active default dtype, as ``Tensor.__init__`` does, so it
returns the same bits as ``forward(Tensor(x)).data`` in eval mode
(``tests/nn/test_inference.py`` pins this).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.backend import active_backend
from repro.nn.tensor import Tensor, get_default_dtype
from repro.utils.rng import SeedLike, new_rng


def as_default(data: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``data`` as ``dtype``: the cast ``Tensor.__init__`` applies."""
    return data if data.dtype == dtype else data.astype(dtype)


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a :class:`Module`."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic, giving recursive ``parameters()``,
    ``state_dict()`` and train/eval mode propagation for free.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for Fig. 10 model-size axis)."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != {param.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine map ``x @ W + b`` with Glorot-uniform initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng=rng), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        dtype = get_default_dtype()
        out = as_default(
            active_backend().matmul(as_default(x, dtype), self.weight.data), dtype
        )
        if self.bias is not None:
            out = as_default(out + self.bias.data, dtype)
        return out


class Dropout(Module):
    def __init__(self, p: float = 0.0, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, rng=self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name="gamma")
        self.beta = Parameter(np.zeros(dim), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"LayerNorm expected trailing dim {self.dim}, got {x.shape}"
            )
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        # F.layer_norm's ops: mean is sum times 1/n, x - m is x + (-m), and
        # every Python scalar becomes a 0-d array of the default dtype.
        dtype = get_default_dtype()
        x = as_default(x, dtype)
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"LayerNorm expected trailing dim {self.dim}, got {x.shape}"
            )
        scale = as_default(np.asarray(1.0 / x.shape[-1]), dtype)
        total = as_default(x.sum(axis=-1, keepdims=True), dtype)
        mean = as_default(total * scale, dtype)
        centered = as_default(x + as_default(-mean, dtype), dtype)
        squared = as_default(centered * centered, dtype)
        var = as_default(
            as_default(squared.sum(axis=-1, keepdims=True), dtype) * scale, dtype
        )
        eps = as_default(np.asarray(self.eps), dtype)
        shifted = as_default(var + eps, dtype)
        normalized = as_default(centered * as_default(shifted**-0.5, dtype), dtype)
        out = as_default(normalized * self.gamma.data, dtype)
        return as_default(out + self.beta.data, dtype)


class Sequential(Module):
    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


# name -> (Tensor op, the same op on a plain array for ``infer``).
_ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "relu": (F.relu, F.relu_array),
    "tanh": (F.tanh, np.tanh),
    "sigmoid": (F.sigmoid, F.sigmoid_array),
    "leaky_relu": (F.leaky_relu, F.leaky_relu_array),
    "identity": (lambda x: x, lambda x: x),
}


class MLP(Module):
    """Multi-layer perceptron: Linear → activation (→ dropout) per hidden layer.

    This is the workhorse of SLIM (``MLP1``, ``MLP2`` and the decoder are all
    instances of this class).

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[64, 128, 32]`` is a
        two-layer MLP.  A single pair ``[in, out]`` degenerates to a Linear
        layer with no activation on the output.
    activation:
        Name of the hidden activation (``relu`` by default).  The output
        layer is always linear.
    """

    def __init__(
        self,
        dims: Sequence[int],
        activation: str = "relu",
        dropout: float = 0.0,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError(f"MLP needs at least [in, out] dims, got {list(dims)}")
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        rng = new_rng(rng)
        self.dims = list(dims)
        self.activation_name = activation
        self._activation, self._array_activation = _ACTIVATIONS[activation]
        self._layer_names: List[str] = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            name = f"fc{index}"
            setattr(self, name, Linear(d_in, d_out, rng=rng))
            self._layer_names.append(name)
        self.drop = Dropout(dropout, rng=rng) if dropout > 0 else Identity()

    @property
    def num_layers(self) -> int:
        return len(self._layer_names)

    def forward(self, x: Tensor) -> Tensor:
        last = len(self._layer_names) - 1
        for index, name in enumerate(self._layer_names):
            x = getattr(self, name)(x)
            if index != last:
                x = self._activation(x)
                x = self.drop(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        dtype = get_default_dtype()
        last = len(self._layer_names) - 1
        for index, name in enumerate(self._layer_names):
            x = getattr(self, name).infer(x)
            if index != last:
                x = as_default(self._array_activation(x), dtype)
        return x


class Embedding(Module):
    """Learnable lookup table mapping integer ids to vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(dim), size=(num_embeddings, dim)),
            name="weight",
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding indices out of range [0, {self.num_embeddings})"
            )
        return F.embedding(self.weight, idx)


def get_activation(name: str) -> Callable[[Tensor], Tensor]:
    """Look up an activation function by name (for config-driven models)."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return _ACTIVATIONS[name][0]

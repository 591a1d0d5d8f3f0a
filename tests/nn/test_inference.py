"""The layers' ndarray ``infer`` methods return their Tensor forward's bits.

``infer`` is the eval-mode forward on plain arrays.  Each case compares it
with ``forward(Tensor(x)).data`` under ``no_grad`` by ``tobytes()``, for
models built and scored at either precision: a float64-built model scored
under float32 exercises the per-op casts to the default dtype.
"""

import numpy as np
import pytest

from repro.nn import default_dtype, no_grad
from repro.nn.layers import _ACTIVATIONS, MLP, LayerNorm, Linear
from repro.nn.tensor import Tensor

# (build dtype, score dtype)
PRECISIONS = [
    ("float64", "float64"),
    ("float32", "float32"),
    ("float64", "float32"),
    ("float32", "float64"),
]


def perturbed(module, seed=0):
    """Move every parameter off its initial value (zero biases, unit gains)."""
    rng = np.random.default_rng(seed)
    for param in module.parameters():
        noise = rng.normal(scale=0.5, size=param.shape)
        param.data = (param.data + noise).astype(param.data.dtype)
    return module


def inputs(shape, seed=1):
    x = np.random.default_rng(seed).normal(scale=2.0, size=shape)
    x.reshape(-1)[::5] = 0.0  # activation kinks
    return x


def assert_same_bits(module, x, score):
    with default_dtype(score):
        module.eval()
        with no_grad():
            expected = module(Tensor(x)).data
        got = module.infer(x)
    assert got.dtype == expected.dtype == np.dtype(score)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("shape", [(1, 6), (7, 6), (3, 4, 6), (0, 6)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear(build, score, shape, bias):
    with default_dtype(build):
        layer = perturbed(Linear(6, 5, bias=bias, rng=0))
    assert_same_bits(layer, inputs(shape), score)


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("shape", [(1, 6), (9, 6), (3, 4, 6), (0, 6)])
def test_layer_norm(build, score, shape):
    with default_dtype(build):
        norm = perturbed(LayerNorm(6, eps=1e-3))
    x = inputs(shape) + 40.0  # a large mean: centring matters
    assert_same_bits(norm, x, score)


def test_layer_norm_rejects_a_wrong_width():
    with pytest.raises(ValueError, match="trailing dim 6"):
        LayerNorm(6).infer(np.zeros((2, 5)))


@pytest.mark.parametrize("build, score", PRECISIONS)
@pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_mlp(build, score, activation, num_layers, dropout):
    dims = [6] + [8] * (num_layers - 1) + [3]
    with default_dtype(build):
        mlp = perturbed(MLP(dims, activation=activation, dropout=dropout, rng=2))
    assert_same_bits(mlp, inputs((5, 4, 6)), score)


def test_mlp_infer_has_eval_semantics_in_training_mode():
    mlp = perturbed(MLP([6, 8, 3], dropout=0.5, rng=0))
    x = inputs((5, 6))
    mlp.train()
    got = mlp.infer(x)
    assert mlp.training  # infer neither reads nor changes the mode
    mlp.eval()
    with no_grad():
        assert got.tobytes() == mlp(Tensor(x)).data.tobytes()

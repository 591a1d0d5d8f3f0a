"""SLIM — Simple MLP-based model with Integration of Messages (paper §IV-C).

The paper's core architectural contribution: a TGNN built from MLPs only.
For a target node v_i at time t with recent temporal edges N_i(t):

  raw message  rm(l) = [x*_j(t(l)) ‖ x_ij ‖ φ_t(t − t(l))]          (Eq. 14)
  message      m(l)  = MLP1(rm(l)) · w_ij                            (Eq. 16)
  intermediate h̃_i  = MLP2([x*_i(t) ‖ mean_l m(l)])                 (Eq. 17)
  output       h_i   = LN1(h̃_i) + λ_s · LN2(Σ_l m(l))               (Eq. 18)
  prediction   Ŷ_i   = Decoder(h_i)                                  (Eq. 19)

All inputs are constants of the materialised context, so each query costs
O(k·(d_v+d_e+d_t)·d_h + L·d_h²), independent of graph size (paper §IV-C).

Training runs :meth:`SLIM.encode` on the autodiff tape.  Scoring runs the
same equations on plain arrays (:meth:`SLIM.infer_representations`, built
from the layers' ``infer`` methods), which costs only that arithmetic plus
numpy's per-op dispatch and returns the same bits
(``tests/models/test_slim_inference.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.features.time_encoding import TimeEncoder
from repro.models.base import ContextModel, ModelConfig
from repro.models.context import ContextBundle
from repro.nn.layers import MLP, LayerNorm, Module, as_default
from repro.nn.tensor import Tensor, concat, get_default_dtype
from repro.utils.rng import spawn_rngs


class SLIM(ContextModel):
    """The SLIM TGNN operating on one selected feature process."""

    name = "SLIM"

    def __init__(
        self,
        feature_name: str,
        feature_dim: int,
        edge_feature_dim: int,
        config: Optional[ModelConfig] = None,
    ) -> None:
        config = config or ModelConfig()
        super().__init__(config)
        self.feature_name = feature_name
        self.feature_dim = feature_dim
        self.edge_feature_dim = edge_feature_dim
        d_h = config.hidden_dim
        rng1, rng2, rng3 = spawn_rngs(config.seed, 3)

        self.time_encoder = TimeEncoder(config.time_dim)
        message_in = feature_dim + edge_feature_dim + config.time_dim
        hidden = [d_h] * max(config.num_layers - 1, 1)
        self.message_mlp = MLP(
            [message_in] + hidden + [d_h], dropout=config.dropout, rng=rng1
        )
        self.aggregate_mlp = MLP(
            [feature_dim + d_h] + hidden + [d_h], dropout=config.dropout, rng=rng2
        )
        self.ln_representation = LayerNorm(d_h)
        self.ln_skip = LayerNorm(d_h)
        self.skip_weight = config.skip_weight
        self._decoder_rng = rng3

    def build_decoder(self, output_dim: int) -> Module:
        d_h = self.config.hidden_dim
        return MLP(
            [d_h, d_h, output_dim], dropout=self.config.dropout, rng=self._decoder_rng
        )

    # ------------------------------------------------------------------
    def _inputs(self, bundle: ContextBundle, idx: np.ndarray):
        """The constants one batch reads from the context (float64)."""
        idx = np.asarray(idx, dtype=np.int64)
        neighbor_feats = bundle.get_neighbor_features(self.feature_name, idx)
        target_feats = bundle.get_target_features(self.feature_name, idx)
        deltas = bundle.time_deltas(idx)
        time_enc = self.time_encoder(deltas)  # (B, k, d_t)
        parts = [neighbor_feats]
        if self.edge_feature_dim:
            parts.append(bundle.edge_features[idx])
        parts.append(time_enc)
        raw_messages = np.concatenate(parts, axis=-1)  # (B, k, message_in)

        mask = bundle.mask[idx]
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)  # (B, 1)
        weights = (bundle.edge_weights[idx] * mask)[..., None]  # (B, k, 1)
        return raw_messages, target_feats, counts, weights

    def encode(self, bundle: ContextBundle, idx: np.ndarray) -> Tensor:
        raw_messages, target_feats, counts, weights = self._inputs(bundle, idx)
        messages = self.message_mlp(Tensor(raw_messages)) * weights  # (Eq. 16)
        summed = messages.sum(axis=1)  # (B, d_h): Σ_l m(l), padded slots are zero
        mean_messages = summed * (1.0 / counts)

        intermediate = self.aggregate_mlp(
            concat([Tensor(target_feats), mean_messages], axis=-1)
        )  # (Eq. 17)
        return self.ln_representation(intermediate) + self.ln_skip(summed) * (
            self.skip_weight
        )  # (Eq. 18)

    def infer_representations(
        self, bundle: ContextBundle, idx: np.ndarray
    ) -> np.ndarray:
        """:meth:`encode`'s ops in its order on plain arrays, each result
        cast to the default dtype as a ``Tensor`` would be."""
        dtype = get_default_dtype()
        raw_messages, target_feats, counts, weights = self._inputs(bundle, idx)
        messages = as_default(
            self.message_mlp.infer(raw_messages) * as_default(weights, dtype), dtype
        )
        summed = as_default(messages.sum(axis=1), dtype)
        mean_messages = as_default(summed * as_default(1.0 / counts, dtype), dtype)
        joined = np.concatenate(
            [as_default(target_feats, dtype), mean_messages], axis=-1
        )
        intermediate = self.aggregate_mlp.infer(as_default(joined, dtype))
        skip_weight = as_default(np.asarray(self.skip_weight), dtype)
        skip = as_default(self.ln_skip.infer(summed) * skip_weight, dtype)
        return as_default(self.ln_representation.infer(intermediate) + skip, dtype)

    def infer_queries(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        return self.decoder.infer(self.infer_representations(bundle, idx))

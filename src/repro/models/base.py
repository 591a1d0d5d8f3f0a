"""Model interfaces and the shared training loop.

Two families of models exist in this reproduction:

* **Context models** (SLIM, TGAT, DySAT, GraphMixer, DyGFormer, FreeDyG):
  the prediction at a query is a pure function of the materialised context
  (:class:`~repro.models.context.ContextBundle`), so they train with
  standard shuffled minibatches.
* **Memory models** (JODIE, TGN, SLADE): they carry per-node state that
  evolves along the stream, so training replays chronological batches; they
  implement :class:`StreamModel` directly.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.nn.layers import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, get_default_dtype, no_grad
from repro.streams.batching import minibatch_indices
from repro.tasks.base import Task
from repro.models.context import ContextBundle
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

logger = get_logger("models")


@dataclass
class ModelConfig:
    """Hyperparameters shared across all TGNN implementations."""

    hidden_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.1
    time_dim: int = 16
    lr: float = 1e-3
    weight_decay: float = 0.0
    epochs: int = 30
    batch_size: int = 256
    patience: int = 5
    grad_clip: float = 5.0
    seed: int = 0
    # SLIM-specific knobs kept here so sweeps can treat configs uniformly.
    skip_weight: float = 0.2
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.hidden_dim <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("hidden_dim, epochs, batch_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class FitHistory:
    """Per-epoch training diagnostics returned by ``fit``."""

    train_losses: List[float] = field(default_factory=list)
    val_scores: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_score: float = float("-inf")


class StreamModel(Module):
    """Common interface: fit on a bundle + task, then score query subsets."""

    name: str = "stream-model"

    @abstractmethod
    def fit(
        self,
        bundle: ContextBundle,
        task: Task,
        train_idx: np.ndarray,
        val_idx: Optional[np.ndarray] = None,
    ) -> FitHistory: ...

    @abstractmethod
    def predict_scores(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        """Metric-ready scores for the queries at ``idx`` (uses task.scores)."""


class ContextModel(StreamModel):
    """Base for models whose prediction depends only on the query context.

    Subclasses implement :meth:`encode` mapping a batch of query indices to
    representations (B, hidden_dim); the decoder and training loop live here.
    """

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config
        self._task: Optional[Task] = None
        self._rng = new_rng(config.seed)

    # -- subclass API ---------------------------------------------------
    @abstractmethod
    def encode(self, bundle: ContextBundle, idx: np.ndarray) -> Tensor:
        """Dynamic node representations h_i(t) for the queries at ``idx``."""

    @abstractmethod
    def build_decoder(self, output_dim: int) -> Module:
        """Create the task decoder (called once, at the start of fit)."""

    # -- shared machinery -------------------------------------------------
    def forward_queries(self, bundle: ContextBundle, idx: np.ndarray) -> Tensor:
        representations = self.encode(bundle, idx)
        return self.decoder(representations)

    def fit(
        self,
        bundle: ContextBundle,
        task: Task,
        train_idx: np.ndarray,
        val_idx: Optional[np.ndarray] = None,
    ) -> FitHistory:
        train_idx = np.asarray(train_idx, dtype=np.int64)
        if train_idx.size == 0:
            raise ValueError("fit received an empty training index set")
        self.bind_task(task)
        config = self.config
        optimizer = Adam(
            self.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )
        history = FitHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None
        stale = 0
        for epoch in range(config.epochs):
            self.train()
            epoch_losses = []
            for rows in minibatch_indices(
                len(train_idx), config.batch_size, shuffle=True, rng=self._rng
            ):
                idx = train_idx[rows]
                optimizer.zero_grad()
                logits = self.forward_queries(bundle, idx)
                loss = task.loss(logits, idx)
                loss.backward()
                clip_grad_norm(self.parameters(), config.grad_clip)
                optimizer.step()
                epoch_losses.append(loss.item())
            history.train_losses.append(float(np.mean(epoch_losses)))

            if val_idx is not None and len(val_idx):
                score = self._validation_score(bundle, task, np.asarray(val_idx))
                history.val_scores.append(score)
                if score > history.best_val_score + 1e-12:
                    history.best_val_score = score
                    history.best_epoch = epoch
                    best_state = self.state_dict()
                    stale = 0
                else:
                    stale += 1
                    if stale > config.patience:
                        break
        if best_state is not None:
            self.load_state_dict(best_state)
        return history

    def _validation_score(
        self, bundle: ContextBundle, task: Task, val_idx: np.ndarray
    ) -> float:
        """Validation metric; falls back to negative loss when the metric is
        undefined on the slice (e.g., one-class AUC)."""
        self.eval()
        scores = self.predict_scores(bundle, val_idx)
        try:
            return task.evaluate(scores, val_idx)
        except ValueError:
            with no_grad():
                logits = self.forward_queries(bundle, val_idx)
                return -task.loss(logits, val_idx).item()

    def bind_task(self, task: Task) -> "ContextModel":
        """Attach a task for score conversion without (re)training.

        A model restored from a serialized artifact (``repro.serving``) has
        its weights — including the decoder's — but no task; binding one
        enables :meth:`predict_scores`.  The decoder is built here only if
        the model never had one (fresh, un-fitted instances).
        """
        self._task = task
        if not hasattr(self, "decoder"):
            self.decoder = self.build_decoder(task.output_dim)
        return self

    # -- inference ----------------------------------------------------
    # The predict methods score in chunks of ``batch_size`` through two
    # per-chunk hooks.  By default they run the Tensor forward under
    # ``no_grad``; SLIM overrides them with an ndarray forward that returns
    # the same bits without building a graph or touching grad mode.
    def infer_queries(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        """Eval-mode decoder outputs for one chunk of queries."""
        with no_grad():
            return self.forward_queries(bundle, idx).data

    def infer_representations(
        self, bundle: ContextBundle, idx: np.ndarray
    ) -> np.ndarray:
        """Eval-mode representations for one chunk of queries."""
        with no_grad():
            return self.encode(bundle, idx).data

    def _infer_chunks(self, infer, bundle, idx, width: int) -> np.ndarray:
        """Run ``infer`` per chunk in eval mode; ``width`` sizes zero rows."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.training:
            self.eval()
        size = self.config.batch_size
        outputs = [
            infer(bundle, idx[start : start + size])
            for start in range(0, len(idx), size)
        ]
        if not outputs:
            return np.zeros((0, width), dtype=get_default_dtype())
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)

    def predict_scores(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        if self._task is None:
            raise RuntimeError("predict_scores called before fit")
        logits = self._infer_chunks(
            self.infer_queries, bundle, idx, self.decoder.dims[-1]
        )
        return self._task.scores(logits)

    def predict_logits(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        """Raw decoder outputs, one row per query."""
        return self._infer_chunks(
            self.infer_queries, bundle, idx, self.decoder.dims[-1]
        )

    def representations(self, bundle: ContextBundle, idx: np.ndarray) -> np.ndarray:
        """Dynamic node representations (used by Fig. 14's analysis)."""
        return self._infer_chunks(
            self.infer_representations, bundle, idx, self.config.hidden_dim
        )


def evaluate_model(
    model: StreamModel, bundle: ContextBundle, task: Task, idx: np.ndarray
) -> float:
    """Metric of ``model`` on the query subset ``idx``."""
    scores = model.predict_scores(bundle, idx)
    return task.evaluate(scores, np.asarray(idx))

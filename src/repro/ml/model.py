"""A numpy SGD classifier standing in for TabNet.

The paper's convergence claims (§5.2.2) are about *data order*, not
architecture: SGD over biased mini-batches (windowed / partial shuffle of
label-clustered data) converges slower and to lower accuracy than SGD
over fully reshuffled data.  Plain logistic regression with mini-batch
SGD exhibits exactly this, deterministically, which makes the effect
testable.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import seeded_rng


class SGDClassifier:
    """Mini-batch SGD logistic regression."""

    def __init__(
        self,
        num_features: int,
        learning_rate: float = 0.05,
        batch_size: int = 256,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0 or batch_size < 1:
            raise ValueError("bad hyperparameters")
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        rng = seeded_rng(seed, "model-init")
        self.weights = (0.01 * rng.normal(size=num_features + 1)).astype(
            np.float64
        )
        self.samples_seen = 0

    # -- parameter vector (for distributed averaging) ------------------------
    def get_params(self) -> np.ndarray:
        """A copy of the parameter vector (weights + bias)."""
        return self.weights.copy()

    def set_params(self, params: np.ndarray) -> None:
        """Replace the parameter vector."""
        self.weights = np.asarray(params, dtype=np.float64).copy()

    @staticmethod
    def average(params_list) -> np.ndarray:
        return np.mean(np.stack(list(params_list)), axis=0)

    # -- training ------------------------------------------------------------
    def _logits(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights[:-1] + self.weights[-1]

    def train_batch(self, features: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step; returns the batch's logistic loss."""
        logits = self._logits(features)
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
        error = probs - labels
        grad_w = features.T @ error / len(labels)
        grad_b = float(error.mean())
        self.weights[:-1] -= self.learning_rate * grad_w
        self.weights[-1] -= self.learning_rate * grad_b
        self.samples_seen += len(labels)
        eps = 1e-9
        return float(
            -np.mean(
                labels * np.log(probs + eps)
                + (1 - labels) * np.log(1 - probs + eps)
            )
        )

    def train_block(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Consume one data block as consecutive mini-batches (in the
        order given -- order is the experiment)."""
        last_loss = 0.0
        for start in range(0, len(labels), self.batch_size):
            stop = start + self.batch_size
            last_loss = self.train_batch(features[start:stop], labels[start:stop])
        return last_loss

    # -- evaluation ------------------------------------------------------------
    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on the given set."""
        predictions = (self._logits(features) > 0).astype(np.float64)
        return float((predictions == labels).mean())

"""A fast classical baseline.

Fig. 11 and Fig. 13 report its accuracy beside the BiLSTM's on the same
split: if the BiLSTM cannot beat a nearest-centroid model, something is
wrong with the training, not the data.
"""

from __future__ import annotations

import numpy as np


class NearestCentroidClassifier:
    """Classify by Euclidean distance to per-class mean traces."""

    def __init__(self) -> None:
        self._centroids: np.ndarray | None = None
        self._classes: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "NearestCentroidClassifier":
        """Compute class centroids."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if len(x) != len(y):
            raise ValueError("x and y must align")
        self._classes = np.unique(y)
        self._centroids = np.stack([x[y == cls].mean(axis=0) for cls in self._classes])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Nearest-centroid labels."""
        if self._centroids is None:
            raise RuntimeError("fit() must run before predict()")
        x = np.asarray(x, dtype=np.float64)
        distances = ((x[:, None, :] - self._centroids[None, :, :]) ** 2).sum(axis=2)
        return self._classes[distances.argmin(axis=1)]


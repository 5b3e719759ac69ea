"""NumPy-from-scratch machine learning substrate.

The paper classifies side-channel traces with an Attention-based BiLSTM
(two BiLSTM layers, additive attention pooling, dropout, softmax).  No
deep-learning framework is available offline, so the full model — forward
pass, analytic backward pass, and the Adam optimizer — is implemented
here on NumPy alone, together with a fast nearest-centroid baseline used
for quick sanity checks.
"""

from repro.ml.baseline import NearestCentroidClassifier
from repro.ml.openworld import UNKNOWN, OpenWorldClassifier, OpenWorldScores
from repro.ml.layers import (
    AdditiveAttention,
    BiLstmLayer,
    Dense,
    Dropout,
    LstmCell,
    softmax,
    softmax_cross_entropy,
)
from repro.ml.metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.optim import Adam
from repro.ml.train import TrainConfig, Trainer, train_test_split

__all__ = [
    "Adam",
    "AdditiveAttention",
    "AttentionBiLstmClassifier",
    "BiLstmLayer",
    "Dense",
    "Dropout",
    "LstmCell",
    "NearestCentroidClassifier",
    "OpenWorldClassifier",
    "OpenWorldScores",
    "TrainConfig",
    "UNKNOWN",
    "Trainer",
    "accuracy",
    "confusion_matrix",
    "f1_score",
    "precision_recall_f1",
    "softmax",
    "softmax_cross_entropy",
    "train_test_split",
]

"""Golden SHA-256 digests of the recurrent layers and of a short training.

The BiLSTM recurrence is an optimization target, and any rewrite of it
must keep every float bit-identical: the trained classifier feeds the
Fig. 11, Fig. 13 and open-world result digests, and Adam's global-norm
clip sums the gradient arrays one by one, so even a reordered
accumulation moves the trained parameters.  These digests pin

* an :class:`LstmCell` and a :class:`BiLstmLayer` on fixed random
  inputs: forward outputs, input gradients and parameter gradients;
* a short :meth:`Trainer.fit` with dropout on and three minibatches per
  epoch, so training and evaluation-mode forward passes interleave:
  every trained parameter array, in ``params()`` order, and the
  per-epoch loss and training-accuracy history.

A change here means a change altered what the classifier computes.
"""

import hashlib

import numpy as np

from repro.ml.layers import BiLstmLayer, LstmCell
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.train import TrainConfig, Trainer

CELL_DIGEST = "1a3ca2f1b9ea79317057a38039673014ed01278dbf0164f4a995f7ae63bdbe90"
BILSTM_DIGEST = "d50ad6069a527e84cc45716040ee06fe8c1a3fac947bb3702a01033c66642da0"
TRAINING_DIGEST = "ca42f472fd37670839772a26aa785b6c16542670701da273d820b24b133cdac0"


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return sha.hexdigest()


def _layer_arrays(layer, in_features, out_features):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 9, in_features))
    grad_out = rng.normal(size=(3, 9, out_features))
    out = layer.forward(x)
    grad_x = layer.backward(grad_out)
    return [out, grad_x, *layer.grads()]


def test_lstm_cell_digest():
    cell = LstmCell(3, 4, np.random.default_rng(8))
    assert _digest(_layer_arrays(cell, 3, 4)) == CELL_DIGEST


def test_bilstm_layer_digest():
    layer = BiLstmLayer(3, 4, np.random.default_rng(9))
    assert _digest(_layer_arrays(layer, 3, 8)) == BILSTM_DIGEST


def test_training_digest():
    rng = np.random.default_rng(21)
    classes, per_class, steps = 3, 8, 14
    x = rng.normal(0, 0.3, size=(classes * per_class, steps))
    y = np.repeat(np.arange(classes), per_class)
    for c in range(classes):
        x[y == c, 2 + 4 * c : 5 + 4 * c] += 2.0
    model = AttentionBiLstmClassifier(
        classes=classes,
        hidden=5,
        attention_size=4,
        dropout=0.2,
        rng=np.random.default_rng(22),
        input_features=1,
    )
    config = TrainConfig(epochs=4, batch_size=9, seed=23, early_stop_train_accuracy=2.0)
    result = Trainer(model, config).fit(x, y)
    assert result.epochs_run == 4
    digest = _digest([*model.params(), result.losses, result.train_accuracies])
    assert digest == TRAINING_DIGEST

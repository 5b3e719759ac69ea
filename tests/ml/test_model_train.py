"""End-to-end learning tests for the classifier, trainer, and baselines."""

import numpy as np
import pytest

from repro.ml.baseline import NearestCentroidClassifier
from repro.ml.metrics import accuracy, confusion_matrix, f1_score, macro_f1
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.train import TrainConfig, Trainer, standardize_traces, train_test_split


def synthetic_traces(classes=3, per_class=20, steps=30, seed=0):
    """Class c gets a bump at a class-specific position plus noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.3, size=(classes * per_class, steps))
    y = np.repeat(np.arange(classes), per_class)
    for c in range(classes):
        position = 3 + c * (steps - 6) // max(classes - 1, 1)
        x[y == c, position : position + 3] += 3.0
    return x, y


class TestModelBasics:
    def test_logit_shape(self):
        model = AttentionBiLstmClassifier(classes=4, hidden=6, rng=np.random.default_rng(0))
        logits = model.forward(np.zeros((5, 10)))
        assert logits.shape == (5, 4)

    def test_predict_proba_sums_to_one(self):
        model = AttentionBiLstmClassifier(classes=3, hidden=4, rng=np.random.default_rng(0))
        proba = model.predict_proba(np.random.default_rng(1).normal(size=(4, 8)))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            AttentionBiLstmClassifier(classes=1)

    def test_parameter_count_positive(self):
        model = AttentionBiLstmClassifier(classes=2, hidden=4, rng=np.random.default_rng(0))
        assert model.parameter_count() > 100

    def test_whole_model_gradient_direction(self):
        """One Adam step on one batch must reduce that batch's loss."""
        from repro.ml.optim import Adam

        model = AttentionBiLstmClassifier(
            classes=3, hidden=5, dropout=0.0, rng=np.random.default_rng(2)
        )
        x, y = synthetic_traces(classes=3, per_class=4, steps=12, seed=3)
        optimizer = Adam(model.params(), model.grads(), learning_rate=1e-2)
        loss_before, grad = model.loss(x, y)
        model.backward(grad)
        optimizer.step()
        loss_after, _ = model.loss(x, y)
        assert loss_after < loss_before


class TestTrainer:
    def test_learns_separable_classes(self):
        x, y = synthetic_traces(classes=3, per_class=15, steps=24, seed=5)
        x_train, y_train, x_test, y_test = train_test_split(
            x, y, rng=np.random.default_rng(0)
        )
        model = AttentionBiLstmClassifier(
            classes=3, hidden=8, dropout=0.1, rng=np.random.default_rng(1)
        )
        trainer = Trainer(model, TrainConfig(epochs=25, batch_size=16, seed=2))
        result = trainer.fit(x_train, y_train)
        assert result.epochs_run >= 1
        assert trainer.evaluate(x_test, y_test) >= 0.8

    def test_early_stop(self):
        x, y = synthetic_traces(classes=2, per_class=10, steps=16, seed=6)
        model = AttentionBiLstmClassifier(
            classes=2, hidden=8, dropout=0.0, rng=np.random.default_rng(3)
        )
        trainer = Trainer(model, TrainConfig(epochs=200, batch_size=10))
        result = trainer.fit(x, y)
        assert result.epochs_run < 200

    def test_standardize(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = standardize_traces(x)
        assert z.mean() == pytest.approx(0.0)
        assert z.std() == pytest.approx(1.0)

    def test_standardize_constant_input(self):
        z = standardize_traces(np.ones((3, 3)))
        assert np.all(z == 0)


class TestSplit:
    def test_split_is_stratified(self):
        y = np.repeat(np.arange(4), 10)
        x = np.zeros((40, 5))
        _, y_train, _, y_test = train_test_split(x, y, 0.2, np.random.default_rng(0))
        for cls in range(4):
            assert (y_test == cls).sum() == 2
            assert (y_train == cls).sum() == 8

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 2)), np.zeros(4), 0.0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((4, 2)), np.zeros(5), 0.2)


class TestBaselines:
    def test_nearest_centroid_separable(self):
        x, y = synthetic_traces(seed=7)
        model = NearestCentroidClassifier().fit(x, y)
        assert accuracy(y, model.predict(x)) > 0.95

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            NearestCentroidClassifier().predict(np.zeros((1, 3)))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]), classes=2)
        assert matrix.tolist() == [[1, 1], [0, 1]]
        assert matrix.sum() == 3

    def test_f1_from_counts(self):
        """The paper's DevTLB keystroke numbers: 500 TP, 15 FP, 61 FN."""
        assert f1_score(500, 15, 61) == pytest.approx(0.9294, abs=1e-3)

    def test_f1_zero_cases(self):
        assert f1_score(0, 0, 0) == 0.0
        assert f1_score(0, 5, 5) == 0.0

    def test_macro_f1_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y, classes=3) == pytest.approx(1.0)

"""Neural-network layers with analytic gradients.

Conventions: inputs are ``(batch, time, features)`` float64 arrays; every
layer exposes ``forward`` (and keeps the cache it needs), ``backward``
(returning the gradient w.r.t. its input), and ``params()`` /
``grads()`` aligned lists for the optimizer.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along *axis*."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. *logits*.

    *labels* are integer class indices of shape ``(batch,)``.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    batch = logits.shape[0]
    probabilities = softmax(logits, axis=1)
    picked = probabilities[np.arange(batch), labels]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    grad = probabilities.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class Dense:
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        self.weight = _glorot(rng, in_features, out_features)
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map (works on any leading shape)."""
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return grad w.r.t. the input."""
        x = self._input
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_output.reshape(-1, grad_output.shape[-1])
        self.grad_weight[...] = flat_x.T @ flat_g
        self.grad_bias[...] = flat_g.sum(axis=0)
        return grad_output @ self.weight.T

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class LstmCell:
    """One-direction LSTM over a full sequence.

    Gate order in the stacked weight matrices: input, forget, output,
    candidate.  The forget-gate bias starts at 1 (standard trick for
    gradient flow on long traces).
    """

    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator) -> None:
        self.in_features = in_features
        self.hidden = hidden
        self.w_x = _glorot(rng, in_features, 4 * hidden)
        self.w_h = _glorot(rng, hidden, 4 * hidden)
        self.bias = np.zeros(4 * hidden)
        self.bias[hidden : 2 * hidden] = 1.0
        self.grad_w_x = np.zeros_like(self.w_x)
        self.grad_w_h = np.zeros_like(self.w_h)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the sequence; return hidden states ``(batch, T, hidden)``."""
        batch, steps, _ = x.shape
        hidden = self.hidden
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        hs = np.zeros((batch, steps, hidden))
        cache = {"x": x, "i": [], "f": [], "o": [], "g": [], "c": [], "h_prev": [], "c_prev": []}
        for t in range(steps):
            cache["h_prev"].append(h)
            cache["c_prev"].append(c)
            z = x[:, t, :] @ self.w_x + h @ self.w_h + self.bias
            i = sigmoid(z[:, :hidden])
            f = sigmoid(z[:, hidden : 2 * hidden])
            o = sigmoid(z[:, 2 * hidden : 3 * hidden])
            g = np.tanh(z[:, 3 * hidden :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, t, :] = h
            for key, value in zip("ifog", (i, f, o, g)):
                cache[key].append(value)
            cache["c"].append(c)
        self._cache = cache
        return hs

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """Backprop through time; return grad w.r.t. the input sequence."""
        cache = self._cache
        x = cache["x"]
        batch, steps, _ = x.shape
        hidden = self.hidden
        self.grad_w_x[...] = 0.0
        self.grad_w_h[...] = 0.0
        self.grad_bias[...] = 0.0
        grad_x = np.zeros_like(x)
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            i, f, o, g = (cache[k][t] for k in "ifog")
            c = cache["c"][t]
            c_prev = cache["c_prev"][t]
            h_prev = cache["h_prev"][t]
            tanh_c = np.tanh(c)
            dh = grad_hs[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g**2),
                ],
                axis=1,
            )
            self.grad_w_x += x[:, t, :].T @ dz
            self.grad_w_h += h_prev.T @ dz
            self.grad_bias += dz.sum(axis=0)
            grad_x[:, t, :] = dz @ self.w_x.T
            dh_next = dz @ self.w_h.T
        return grad_x

    def params(self) -> list[np.ndarray]:
        return [self.w_x, self.w_h, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_w_x, self.grad_w_h, self.grad_bias]


class BiLstmLayer:
    """Bidirectional LSTM: forward and reversed passes, concatenated."""

    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator) -> None:
        self.forward_cell = LstmCell(in_features, hidden, rng)
        self.backward_cell = LstmCell(in_features, hidden, rng)
        self.hidden = hidden

    @property
    def out_features(self) -> int:
        """Concatenated output width."""
        return 2 * self.hidden

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return ``(batch, T, 2*hidden)``."""
        fwd = self.forward_cell.forward(x)
        bwd = self.backward_cell.forward(x[:, ::-1, :])[:, ::-1, :]
        return np.concatenate([fwd, bwd], axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        hidden = self.hidden
        grad_fwd = self.forward_cell.backward(grad_output[:, :, :hidden])
        grad_bwd = self.backward_cell.backward(grad_output[:, ::-1, hidden:])[:, ::-1, :]
        return grad_fwd + grad_bwd

    def params(self) -> list[np.ndarray]:
        return self.forward_cell.params() + self.backward_cell.params()

    def grads(self) -> list[np.ndarray]:
        return self.forward_cell.grads() + self.backward_cell.grads()


class AdditiveAttention:
    """Additive (Bahdanau-style) attention pooling over time.

    ``score_t = v . tanh(h_t @ W + b)``; the output is the
    attention-weighted sum of the hidden states.
    """

    def __init__(self, in_features: int, attention_size: int, rng: np.random.Generator) -> None:
        self.weight = _glorot(rng, in_features, attention_size)
        self.bias = np.zeros(attention_size)
        self.v = _glorot(rng, attention_size, 1)[:, 0]
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self.grad_v = np.zeros_like(self.v)
        self._cache: tuple | None = None
        self.last_attention: np.ndarray | None = None

    def forward(self, h: np.ndarray) -> np.ndarray:
        """Pool ``(batch, T, F)`` into ``(batch, F)``."""
        u = np.tanh(h @ self.weight + self.bias)  # (B, T, A)
        scores = u @ self.v  # (B, T)
        alpha = softmax(scores, axis=1)
        context = np.einsum("bt,btf->bf", alpha, h)
        self._cache = (h, u, alpha)
        self.last_attention = alpha
        return context

    def backward(self, grad_context: np.ndarray) -> np.ndarray:
        h, u, alpha = self._cache
        # context = sum_t alpha_t h_t
        grad_alpha = np.einsum("bf,btf->bt", grad_context, h)
        grad_h = alpha[:, :, None] * grad_context[:, None, :]
        # softmax backward
        inner = (grad_alpha * alpha).sum(axis=1, keepdims=True)
        grad_scores = alpha * (grad_alpha - inner)  # (B, T)
        # scores = u @ v
        self.grad_v[...] = np.einsum("bt,bta->a", grad_scores, u)
        grad_u = grad_scores[:, :, None] * self.v[None, None, :]
        grad_pre = grad_u * (1.0 - u**2)  # tanh'
        flat_h = h.reshape(-1, h.shape[-1])
        flat_pre = grad_pre.reshape(-1, grad_pre.shape[-1])
        self.grad_weight[...] = flat_h.T @ flat_pre
        self.grad_bias[...] = flat_pre.sum(axis=0)
        grad_h += grad_pre @ self.weight.T
        return grad_h

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias, self.v]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias, self.grad_v]


class Dropout:
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self.training = True
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

"""Neural-network layers with analytic gradients.

Conventions: inputs are ``(batch, time, features)`` float64 arrays; every
layer exposes ``forward`` (and keeps the cache it needs), ``backward``
(returning the gradient w.r.t. its input), and ``params()`` /
``grads()`` aligned lists for the optimizer.

Both directions of a :class:`BiLstmLayer` advance in one step loop over
``(directions, batch, ...)`` stacks, and an :class:`LstmCell` is the
one-direction case of the same loop: the matmuls and the gradient
accumulations stay per direction, one sigmoid covers the stacked
input/forget/output gates, and BPTT reuses the forward pass's
``tanh(c)``.  Every elementwise op runs in the order of the textbook
one-cell loop, so the floats, and the trained classifier, are the same
bit for bit.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.exp(-np.abs(x))
    denominator = 1.0 + z
    return np.where(x >= 0, 1.0 / denominator, z / denominator)


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


def _gate_blocks(stacked: np.ndarray) -> list[np.ndarray]:
    """Views of the input, forget, output and candidate blocks of the last axis."""
    hidden = stacked.shape[-1] // 4
    return [stacked[..., k * hidden : (k + 1) * hidden] for k in range(4)]


def _lstm_forward(
    cells: list[LstmCell], xs: list[np.ndarray]
) -> tuple[np.ndarray, tuple]:
    """Run ``cells[d]`` over ``xs[d]`` for every direction *d* in one step loop.

    Each ``xs[d]`` is ``(batch, T, features)`` in the order that cell reads
    it.  Returns the hidden states ``(directions, batch, T, hidden)``, each
    direction in its step order, and the BPTT cache.
    """
    batch, steps, _ = xs[0].shape
    hidden = cells[0].hidden
    directions = len(cells)
    h = np.zeros((steps + 1, directions, batch, hidden))
    c = np.zeros((steps + 1, directions, batch, hidden))
    # Per step: sigmoid(input, forget, output gates), tanh(candidate).
    gates = np.empty((steps, directions, batch, 4 * hidden))
    i, f, o, g = _gate_blocks(gates)
    tanh_c = np.empty((steps, directions, batch, hidden))
    bias = np.stack([cell.bias for cell in cells])[:, None, :]
    z = np.empty((directions, batch, 4 * hidden))
    ifo = slice(0, 3 * hidden)
    for t in range(steps):
        for d, cell in enumerate(cells):
            z[d] = xs[d][:, t, :] @ cell.w_x + h[t, d] @ cell.w_h
        z += bias
        gates[t, ..., ifo] = sigmoid(z[..., ifo])
        np.tanh(z[..., ifo.stop :], out=g[t])
        np.multiply(f[t], c[t], out=c[t + 1])
        c[t + 1] += i[t] * g[t]
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o[t], tanh_c[t], out=h[t + 1])
    return h[1:].transpose(1, 2, 0, 3), (xs, h, c, gates, tanh_c)


def _lstm_backward(
    cells: list[LstmCell], cache: tuple, grad_hs: np.ndarray
) -> list[np.ndarray]:
    """Backprop through time for :func:`_lstm_forward`.

    ``grad_hs[d]`` is ``(batch, T, hidden)`` in direction *d*'s step
    order.  Overwrites each cell's gradients and returns each direction's
    input gradient, in its step order.
    """
    xs, h, c, gates, tanh_c = cache
    steps, directions, batch, hidden = tanh_c.shape
    for cell in cells:
        cell.grad_w_x[...] = 0.0
        cell.grad_w_h[...] = 0.0
        cell.grad_bias[...] = 0.0
    grad_xs = [np.zeros_like(x) for x in xs]
    dh_next = np.zeros((directions, batch, hidden))
    dc_next = np.zeros((directions, batch, hidden))
    i, f, o, g = _gate_blocks(gates)
    dz = np.empty((directions, batch, 4 * hidden))
    di, df, do, dg = _gate_blocks(dz)
    ifo = slice(0, 3 * hidden)
    for t in range(steps - 1, -1, -1):
        dh = grad_hs[:, :, t, :] + dh_next
        dc = dh * o[t] * (1.0 - tanh_c[t] ** 2) + dc_next
        np.multiply(dc, g[t], out=di)
        np.multiply(dc, c[t], out=df)
        np.multiply(dh, tanh_c[t], out=do)
        # The sigmoid gates' derivative, d * s * (1 - s), on all three.
        dz[..., ifo] *= gates[t, ..., ifo]
        dz[..., ifo] *= 1.0 - gates[t, ..., ifo]
        np.multiply(dc * i[t], 1.0 - g[t] ** 2, out=dg)
        dc_next = dc * f[t]
        for d, cell in enumerate(cells):
            cell.grad_w_x += xs[d][:, t, :].T @ dz[d]
            cell.grad_w_h += h[t, d].T @ dz[d]
            cell.grad_bias += dz[d].sum(axis=0)
            grad_xs[d][:, t, :] = dz[d] @ cell.w_x.T
            dh_next[d] = dz[d] @ cell.w_h.T
    return grad_xs


class LstmCell:
    """One-direction LSTM over a full sequence.

    Gate order in the stacked weight matrices: input, forget, output,
    candidate.  The forget-gate bias starts at 1 (standard trick for
    gradient flow on long traces).  A cell is the one-direction case of
    the recurrence :class:`BiLstmLayer` runs on two.
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
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the sequence; return hidden states ``(batch, T, hidden)``."""
        hs, self._cache = _lstm_forward([self], [x])
        return np.ascontiguousarray(hs[0])

    def backward(self, grad_hs: np.ndarray) -> np.ndarray:
        """Backprop through time; return grad w.r.t. the input sequence."""
        return _lstm_backward([self], self._cache, grad_hs[None])[0]

    def params(self) -> list[np.ndarray]:
        return [self.w_x, self.w_h, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_w_x, self.grad_w_h, self.grad_bias]


class BiLstmLayer:
    """Bidirectional LSTM: forward and reversed passes, concatenated."""

    def __init__(self, in_features: int, hidden: int, rng: np.random.Generator) -> None:
        self.forward_cell = LstmCell(in_features, hidden, rng)
        self.backward_cell = LstmCell(in_features, hidden, rng)
        self._cells = [self.forward_cell, self.backward_cell]
        self.hidden = hidden
        self._cache: tuple | None = None

    @property
    def out_features(self) -> int:
        """Concatenated output width."""
        return 2 * self.hidden

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return ``(batch, T, 2*hidden)``."""
        hs, self._cache = _lstm_forward(self._cells, [x, x[:, ::-1, :]])
        return np.concatenate([hs[0], hs[1][:, ::-1, :]], axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        hidden = self.hidden
        grad_hs = np.stack([grad_output[:, :, :hidden], grad_output[:, ::-1, hidden:]])
        grad_fwd, grad_bwd = _lstm_backward(self._cells, self._cache, grad_hs)
        return grad_fwd + grad_bwd[:, ::-1, :]

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

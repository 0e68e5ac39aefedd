"""Scaled dot-product self-attention with Q = K = V = input.

No learned projections: attention weights are softmax(x x^T / sqrt(D))
row-wise over time, applied back to the input sequence. It computes in
its input's dtype.
"""

import math

import numpy as np

from ..errors import ShapeError
from .params import forward_state


def _attention_weights(x):
    d = x.shape[-1]
    scores = x @ x.transpose(0, 2, 1) / math.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=-1, keepdims=True)


class SelfAttention:
    def __init__(self):
        self._cache = None

    def forward(self, x, train=False):
        """x is [B, T, D]; a train-mode forward keeps x and the weights."""
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[-1] < 1:
            raise ShapeError("self-attention expects [B, T, D] with D >= 1")
        weights = _attention_weights(x)
        self._cache = (x, weights) if train else None
        return weights @ x

    def backward(self, grad_out):
        x, weights = forward_state(self._cache, self)
        scale = 1.0 / math.sqrt(x.shape[-1])
        grad_v = weights.transpose(0, 2, 1) @ grad_out
        grad_w = grad_out @ x.transpose(0, 2, 1)
        # softmax backward, row-wise over the last axis
        grad_scores = weights * (
            grad_w - (grad_w * weights).sum(axis=-1, keepdims=True))
        grad_q = grad_scores @ x * scale
        grad_k = grad_scores.transpose(0, 2, 1) @ x * scale
        return grad_q + grad_k + grad_v

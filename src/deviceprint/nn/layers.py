"""Batch norm, activations, dense head, reshaping glue, and the
softmax cross-entropy loss.

Each layer computes in the dtype of its parameters and input, and batch
norm keeps its running statistics in its store's dtype. The loss is
computed in the logits' dtype and returned as a Python float, so a caller
that sums losses over batches sums Python floats.

Batch norm and ReLU leave their arguments untouched by default. Built
with in_place=True they write their results over the array forward is
handed and over the gradient backward is handed, for a caller that made
both and reads neither again (C3dBiLstm's two conv blocks): the same
operations in the same order, without a fresh activation-sized array per
call.
"""

import weakref

import numpy as np

from ..errors import DataError, LabelError, ShapeError
from .params import forward_state, uniform_fanin


def _per_channel(v):
    return v.reshape(1, -1, 1, 1, 1)


def _channel_sum(a):
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=(0, 2))


def _channel_dot(a, b):
    """Per-channel sum of a * b without a full-size product."""
    shape = a.shape[:2] + (-1,)
    return np.einsum("bcs,bcs->c", a.reshape(shape), b.reshape(shape))


class BatchNorm3d:
    """Per-channel normalization over (batch, time, height, width).

    Train mode uses current-batch statistics and updates running estimates
    with the given momentum (fraction of the old value kept); inference
    mode normalizes with the running estimates. Either way the output is
    one per-channel multiply and add of the (centred) input. Train mode
    keeps the centred input xc = x - mean for backward, which needs only
    the per-channel sums of g and g * xc. Inference mode allocates nothing
    beyond its output and keeps only a weak reference to its input: a
    caller that still holds the input can run backward (the inference
    gradient check does), but inside the network the input is freed as
    soon as the next layer's output replaces it, and a backward then
    raises DependencyError.

    in_place=True writes xc (train) or the output (inference) over the
    input, and the input gradient over the incoming gradient, with xc's
    share of it written over xc. Such a layer keeps nothing after an
    inference forward, and backward drops what train mode kept, so a
    backward after either of those raises DependencyError.
    """

    eps = 1e-5  # added to the variance before its square root

    def __init__(self, store, name, channels, momentum=0.9, *,
                 in_place=False):
        self.gamma = store.add(f"{name}.gamma", np.ones(channels))
        self.beta = store.add(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=store.dtype)
        self.running_var = np.ones(channels, dtype=store.dtype)
        self.momentum = momentum
        self.in_place = in_place
        self._cache = None

    def forward(self, x, train=False):
        if x.ndim != 5:
            raise ShapeError("batch norm expects a 5-D tensor")
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            scale = self.gamma.value * inv_std
            self._cache = None if self.in_place else (
                weakref.ref(x), self.running_mean, inv_std, None)
            out = np.multiply(x, _per_channel(scale),
                              out=x if self.in_place else None)
            out += _per_channel(self.beta.value - self.running_mean * scale)
            return out
        m = x.size // x.shape[1]
        if m < 2:
            raise DataError("train-mode batch norm needs >= 2 values "
                            "per channel")
        mean = _channel_sum(x) / m
        xc = np.subtract(x, _per_channel(mean),
                         out=x if self.in_place else None)
        var = _channel_dot(xc, xc) / m
        self.running_mean = (self.momentum * self.running_mean
                             + (1 - self.momentum) * mean)
        self.running_var = (self.momentum * self.running_var
                            + (1 - self.momentum) * var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        self._cache = (xc, None, inv_std, m)
        out = xc * _per_channel(self.gamma.value * inv_std)
        out += _per_channel(self.beta.value)
        return out

    def backward(self, grad_out):
        xc, mean, inv_std, m = forward_state(self._cache, self)
        if m is None:  # inference: xc holds a weak reference to the input
            xc = forward_state(xc(), self) - _per_channel(mean)
        sum_g = _channel_sum(grad_out)
        sum_g_xc = _channel_dot(grad_out, xc)
        self.gamma.grad += inv_std * sum_g_xc
        self.beta.grad += sum_g
        scale = self.gamma.value * inv_std
        grad_x = np.multiply(grad_out, _per_channel(scale),
                             out=grad_out if self.in_place else None)
        if m is None:
            return grad_x
        # the batch statistics' share: gamma * inv_std / m * (xhat * sum g
        # xhat + sum g), written on xc
        share = _per_channel(scale * inv_std ** 2 * sum_g_xc / m)
        grad_x -= np.multiply(xc, share, out=xc if self.in_place else None)
        grad_x -= _per_channel(scale * sum_g / m)
        if self.in_place:
            self._cache = None  # xc now holds the statistics' share
        return grad_x


class ReLU:
    """max(x, 0) in one pass; train mode also keeps the x > 0 mask that
    backward multiplies by (a multiply, since np.where is slower).

    in_place=True takes the mask first and then writes the output over x,
    and backward writes the masked gradient over the incoming one.
    """

    def __init__(self, *, in_place=False):
        self.in_place = in_place
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0 if train else None
        return np.maximum(x, 0.0, out=x if self.in_place else None)

    def backward(self, grad_out):
        return np.multiply(grad_out, forward_state(self._mask, self),
                           out=grad_out if self.in_place else None)


class FlattenPerStep:
    """[B, C, T, H, W] -> [B, T, C*H*W], keeping the time axis intact."""

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        b, c, t, h, w = x.shape
        return x.transpose(0, 2, 1, 3, 4).reshape(b, t, c * h * w)

    def backward(self, grad_out):
        b, c, t, h, w = self._shape
        return grad_out.reshape(b, t, c, h, w).transpose(0, 2, 1, 3, 4)


class MeanOverTime:
    """[B, T, D] -> [B, D] by averaging the time axis."""

    def __init__(self):
        self._t = None

    def forward(self, x, train=False):
        self._t = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_out):
        return np.repeat(grad_out[:, None, :], self._t, axis=1) / self._t


class Dense:
    def __init__(self, store, name, d_in, d_out, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.w = store.add(f"{name}.w", uniform_fanin(rng, (d_in, d_out), d_in))
        self.b = store.add(f"{name}.b", np.zeros(d_out))
        self._x = None

    def forward(self, x, train=False):
        self._x = x if train else None
        return x @ self.w.value + self.b.value

    def backward(self, grad_out):
        self.w.grad += forward_state(self._x, self).T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value.T


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    labels must be one-hot rows matching the logits shape. The softmax is
    stabilized by subtracting the row max; the gradient is (S - y) / B.
    Both are computed in the logits' dtype (labels are cast to it), and
    the loss is returned as a Python float.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=logits.dtype)
    if logits.shape != labels.shape or logits.ndim != 2:
        raise LabelError("logits and one-hot labels must both be (B, K)")
    if (np.any((labels != 0.0) & (labels != 1.0))
            or np.any(np.abs(labels.sum(axis=1) - 1.0) > 1e-12)):
        raise LabelError("labels must be one-hot rows")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    batch = logits.shape[0]
    loss = float(-np.sum(labels * log_probs) / batch)
    grad = (np.exp(log_probs) - labels) / batch
    return loss, grad

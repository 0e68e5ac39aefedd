"""Peephole LSTM cell and bidirectional sequence layer.

Gates read the previous cell state through diagonal peephole weights; the
output gate peeks at the freshly updated cell state. The hidden output is
o_t * tanh(C_t).
"""

import numpy as np

from ..errors import ShapeError
from .params import forward_state, uniform_fanin

GATES = ("i", "f", "o", "c")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LstmParams:
    """All weights of one direction: per-gate input and recurrent matrices,
    diagonal peephole vectors, and biases."""

    def __init__(self, store, prefix, d_in, hidden, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_in = d_in
        self.hidden = hidden
        for g in GATES:
            setattr(self, f"w_{g}x", store.add(
                f"{prefix}.w_{g}x", uniform_fanin(rng, (d_in, hidden), d_in)))
            setattr(self, f"w_{g}h", store.add(
                f"{prefix}.w_{g}h", uniform_fanin(rng, (hidden, hidden), hidden)))
            setattr(self, f"b_{g}", store.add(f"{prefix}.b_{g}", np.zeros(hidden)))
        for g in ("i", "f", "o"):
            setattr(self, f"w_{g}c", store.add(
                f"{prefix}.w_{g}c", uniform_fanin(rng, (hidden,), hidden)))


def _step(x, h_prev, c_prev, p):
    i = _sigmoid(x @ p.w_ix.value + h_prev @ p.w_ih.value
                 + c_prev * p.w_ic.value + p.b_i.value)
    f = _sigmoid(x @ p.w_fx.value + h_prev @ p.w_fh.value
                 + c_prev * p.w_fc.value + p.b_f.value)
    g = np.tanh(x @ p.w_cx.value + h_prev @ p.w_ch.value + p.b_c.value)
    c = f * c_prev + i * g
    o = _sigmoid(x @ p.w_ox.value + h_prev @ p.w_oh.value
                 + c * p.w_oc.value + p.b_o.value)
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, (x, h_prev, c_prev, i, f, o, g, c, tanh_c)


def lstm_step(x, h_prev, c_prev, params):
    """One cell update; returns (h_t, C_t)."""
    h, c, _ = _step(np.asarray(x, dtype=np.float64),
                    np.asarray(h_prev, dtype=np.float64),
                    np.asarray(c_prev, dtype=np.float64), params)
    return h, c


def _run_direction(seq, p):
    batch, steps, _ = seq.shape
    h = np.zeros((batch, p.hidden))
    c = np.zeros((batch, p.hidden))
    outputs = np.empty((batch, steps, p.hidden))
    caches = []
    for t in range(steps):
        h, c, cache = _step(seq[:, t], h, c, p)
        outputs[:, t] = h
        caches.append(cache)
    return outputs, caches


def _run_direction_backward(grad_h, caches, p):
    """Backpropagate through time. grad_h is (B, T, H): the gradient
    arriving at every step's hidden output. Accumulates parameter grads
    and returns the gradient w.r.t. the input sequence."""
    batch, steps, _ = grad_h.shape
    grad_seq = np.empty((batch, steps, p.d_in))
    dh_next = np.zeros((batch, p.hidden))
    dc_next = np.zeros((batch, p.hidden))
    for t in range(steps - 1, -1, -1):
        x, h_prev, c_prev, i, f, o, g, c, tanh_c = caches[t]
        dh = grad_h[:, t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
        do_pre = do * o * (1.0 - o)
        dc = dc + do_pre * p.w_oc.value  # output gate peeks at the new cell
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_prev = dc * f
        di_pre = di * i * (1.0 - i)
        df_pre = df * f * (1.0 - f)
        dg_pre = dg * (1.0 - g ** 2)
        dc_prev += di_pre * p.w_ic.value + df_pre * p.w_fc.value

        p.w_ix.grad += x.T @ di_pre
        p.w_fx.grad += x.T @ df_pre
        p.w_ox.grad += x.T @ do_pre
        p.w_cx.grad += x.T @ dg_pre
        p.w_ih.grad += h_prev.T @ di_pre
        p.w_fh.grad += h_prev.T @ df_pre
        p.w_oh.grad += h_prev.T @ do_pre
        p.w_ch.grad += h_prev.T @ dg_pre
        p.w_ic.grad += (di_pre * c_prev).sum(axis=0)
        p.w_fc.grad += (df_pre * c_prev).sum(axis=0)
        p.w_oc.grad += (do_pre * c).sum(axis=0)
        p.b_i.grad += di_pre.sum(axis=0)
        p.b_f.grad += df_pre.sum(axis=0)
        p.b_o.grad += do_pre.sum(axis=0)
        p.b_c.grad += dg_pre.sum(axis=0)

        grad_seq[:, t] = (di_pre @ p.w_ix.value.T + df_pre @ p.w_fx.value.T
                          + do_pre @ p.w_ox.value.T + dg_pre @ p.w_cx.value.T)
        dh_next = (di_pre @ p.w_ih.value.T + df_pre @ p.w_fh.value.T
                   + do_pre @ p.w_oh.value.T + dg_pre @ p.w_ch.value.T)
        dc_next = dc_prev
    return grad_seq


class BiLstm:
    def __init__(self, store, name, d_in, hidden, rng=None):
        self.fwd = LstmParams(store, f"{name}.fwd", d_in, hidden, rng)
        self.bwd = LstmParams(store, f"{name}.bwd", d_in, hidden, rng)
        self.hidden = hidden
        self._caches = None

    def forward(self, seq, train=False):
        """Both directions over [B, T, D]; per-step outputs concatenated
        with the forward half first."""
        seq = np.asarray(seq, dtype=np.float64)
        if seq.ndim != 3 or seq.shape[1] < 1:
            raise ShapeError("sequence must be [B, T, D] with T >= 1")
        out_f, caches_f = _run_direction(seq, self.fwd)
        out_b, caches_b = _run_direction(
            np.ascontiguousarray(seq[:, ::-1]), self.bwd)
        self._caches = (caches_f, caches_b) if train else None
        return np.concatenate([out_f, out_b[:, ::-1]], axis=2)

    def backward(self, grad_out):
        caches_f, caches_b = forward_state(self._caches, self)
        h = self.hidden
        grad_f = np.ascontiguousarray(grad_out[:, :, :h])
        grad_b = np.ascontiguousarray(grad_out[:, ::-1, h:])
        dseq_f = _run_direction_backward(grad_f, caches_f, self.fwd)
        dseq_b = _run_direction_backward(grad_b, caches_b, self.bwd)
        return dseq_f + dseq_b[:, ::-1]

"""Peephole LSTM weights and the bidirectional sequence layer.

Gates read the previous cell state through diagonal peephole weights; the
output gate peeks at the freshly updated cell state. The hidden output is
o_t * tanh(C_t).

Both directions share four stacked blocks, the direction first: the input
weights `wx` [2, D, 4H] and recurrent weights `wh` [2, H, 4H] with the
gates' columns in `SLOTS` order, the biases `b` [2, 4H] likewise, and the
peepholes `wp` [2, 3, H] of gates i, f and o. Each block is one
parameter, so a `BiLstm` runs the two directions in lockstep on [2, ...]
arrays: one batched GEMM projects every step's input before the time
loop, each step makes one recurrent GEMM for all four gates of both
directions, and backward gathers every step's pre-activation gradient and
makes the weight and input-gradient GEMMs once, after the loop. The tests
keep a per-gate, one-direction cell, reading its weights from the
blocks, as the reference it is checked against. Every per-step buffer
takes the weights' dtype, to which the input sequence is cast.
"""

import numpy as np

from ..errors import ShapeError
from .params import forward_state, uniform_fanin

GATES = ("i", "f", "o", "c")  # order of the initial draws
SLOTS = ("i", "f", "c", "o")  # column order of the stacked blocks
PEEPHOLES = ("i", "f", "o")


def _sigmoid(z):
    """1 / (1 + exp(-z)) without overflow: exp(-|z|) never exceeds 1, and
    exp(z) / (1 + exp(z)) stands in where z < 0. Bit for bit the value of
    evaluating each sign's branch on its own elements."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class BiLstm:
    """The four blocks as the parameters `<name>.wx`, `<name>.wh`,
    `<name>.b` and `<name>.wp`, the forward direction at index 0.

    The initial values are drawn per direction, per gate in `GATES` order
    (input weights, then recurrent weights), then the `PEEPHOLES`; each
    draw fills its gate's `SLOTS` columns. The biases start at zero.
    """

    def __init__(self, store, name, d_in, hidden, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        wx = np.empty((2, d_in, 4 * hidden))
        wh = np.empty((2, hidden, 4 * hidden))
        wp = np.empty((2, len(PEEPHOLES), hidden))
        for side in range(2):
            for g in GATES:
                k = SLOTS.index(g)
                cols = slice(k * hidden, (k + 1) * hidden)
                wx[side, :, cols] = uniform_fanin(rng, (d_in, hidden), d_in)
                wh[side, :, cols] = uniform_fanin(rng, (hidden, hidden),
                                                  hidden)
            for k in range(len(PEEPHOLES)):
                wp[side, k] = uniform_fanin(rng, (hidden,), hidden)
        self.wx = store.add(f"{name}.wx", wx)
        self.wh = store.add(f"{name}.wh", wh)
        self.b = store.add(f"{name}.b", np.zeros((2, 4 * hidden)))
        self.wp = store.add(f"{name}.wp", wp)
        self.hidden = hidden
        self._caches = None

    def forward(self, seq, train=False):
        """Both directions over [B, T, D]; per-step outputs concatenated
        with the forward half first.

        Every per-step array is [2, ..., B]: direction first, the backward
        direction reading the sequence reversed, and batch last, so that
        each gate is one contiguous [H, B] slab of the recurrent GEMM's
        output. Each gate's pre-activation adds its two GEMM products, then
        its peephole term (gates i, f and o), then its bias, as a per-gate
        cell does, so the outputs equal that cell composed over each
        direction bit for bit.
        """
        seq = np.asarray(seq, dtype=self.wx.value.dtype)
        if seq.ndim != 3 or seq.shape[1] < 1:
            raise ShapeError("sequence must be [B, T, D] with T >= 1")
        batch, steps, d_in = seq.shape
        hid = self.hidden
        wx, wh = self.wx.value, self.wh.value
        bias = self.b.value.reshape(2, 4, hid, 1)
        peep = self.wp.value[..., None]
        dtype = seq.dtype
        xs = np.empty((2, steps, batch, d_in), dtype=dtype)
        xs[0] = seq.transpose(1, 0, 2)
        xs[1] = seq[:, ::-1].transpose(1, 0, 2)
        proj = np.matmul(wx.transpose(0, 2, 1)[:, None],
                         xs.transpose(0, 1, 3, 2)).reshape(
            2, steps, 4, hid, batch)
        wh_t = wh.transpose(0, 2, 1)
        # hs[:, t] is h_{t-1}; acts holds gates i, f, g, o per SLOTS
        hs = np.zeros((2, steps + 1, hid, batch), dtype=dtype)
        cs = np.zeros((2, steps + 1, hid, batch), dtype=dtype)
        acts = np.empty((2, steps, 4, hid, batch), dtype=dtype)
        tanh_cs = np.empty((2, steps, hid, batch), dtype=dtype)
        for t in range(steps):
            c_prev, c, act = cs[:, t], cs[:, t + 1], acts[:, t]
            z = np.matmul(wh_t, hs[:, t]).reshape(2, 4, hid, batch)
            z += proj[:, t]
            z[:, :2] += c_prev[:, None] * peep[:, :2]
            z[:, :3] += bias[:, :3]
            act[:, :2] = _sigmoid(z[:, :2])
            np.tanh(z[:, 2], out=act[:, 2])
            np.multiply(act[:, 1], c_prev, out=c)
            c += act[:, 0] * act[:, 2]
            z_o = z[:, 3]
            z_o += c * peep[:, 2]
            z_o += bias[:, 3]
            act[:, 3] = _sigmoid(z_o)
            np.tanh(c, out=tanh_cs[:, t])
            np.multiply(act[:, 3], tanh_cs[:, t], out=hs[:, t + 1])
        self._caches = (xs, hs, cs, acts, tanh_cs) if train else None
        out = np.empty((batch, steps, 2 * hid), dtype=dtype)
        out[:, :, :hid] = hs[0, 1:].transpose(2, 0, 1)
        out[:, :, hid:] = hs[1, :0:-1].transpose(2, 0, 1)
        return out

    def backward(self, grad_out):
        xs, hs, cs, acts, tanh_cs = forward_state(self._caches, self)
        _, steps, batch, d_in = xs.shape
        hid = self.hidden
        wx, wh = self.wx.value, self.wh.value
        peep = self.wp.value[..., None]
        dtype = xs.dtype
        grad_h = np.empty((2, steps, hid, batch), dtype=dtype)
        grad_h[0] = grad_out[:, :, :hid].transpose(1, 2, 0)
        grad_h[1] = grad_out[:, ::-1, hid:].transpose(1, 2, 0)
        # every factor that does not depend on the incoming gradient, for
        # all steps at once: each gate's local derivative times what it
        # multiplies (i: g, f: C_{t-1}, g: i), and the two paths from h_t
        deriv = 1.0 - acts
        deriv *= acts
        deriv[:, :, 2] = 1.0 - acts[:, :, 2] ** 2
        coef_ifg = np.stack([acts[:, :, 2], cs[:, :steps], acts[:, :, 0]],
                            axis=2)
        coef_ifg *= deriv[:, :, :3]
        coef_o = tanh_cs * deriv[:, :, 3]  # dh_t -> o's pre-activation
        coef_c = 1.0 - tanh_cs ** 2  # dh_t -> C_t
        coef_c *= acts[:, :, 3]
        dpre = np.empty((2, steps, 4, hid, batch), dtype=dtype)
        dh_next = np.zeros((2, hid, batch), dtype=dtype)
        dc_next = np.zeros((2, hid, batch), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            d = dpre[:, t]
            dh = grad_h[:, t] + dh_next
            np.multiply(dh, coef_o[:, t], out=d[:, 3])
            dc = dh * coef_c[:, t]
            dc += dc_next
            dc += d[:, 3] * peep[:, 2]  # o peeks at the new cell
            np.multiply(dc[:, None], coef_ifg[:, t], out=d[:, :3])
            dc_next = dc * acts[:, t, 1]
            dc_next += (d[:, :2] * peep[:, :2]).sum(axis=1)
            dh_next = np.matmul(wh, d.reshape(2, 4 * hid, batch))
        self.wp.grad += np.concatenate([
            np.einsum("dtkhb,dthb->dkh", dpre[:, :, :2], cs[:, :steps]),
            np.einsum("dthb,dthb->dh", dpre[:, :, 3], cs[:, 1:])[:, None]],
            axis=1)
        # the other gradients sum over steps and batch in one GEMM each, on
        # one row per (step, sample)
        rows = steps * batch
        d_rows = dpre.transpose(0, 1, 4, 2, 3).reshape(2, rows, 4 * hid)
        self.b.grad += d_rows.sum(axis=1)
        self.wx.grad += np.matmul(
            xs.reshape(2, rows, d_in).transpose(0, 2, 1), d_rows)
        self.wh.grad += np.matmul(
            hs[:, :steps].transpose(0, 2, 1, 3).reshape(2, hid, rows), d_rows)
        dxs = np.matmul(d_rows, wx.transpose(0, 2, 1)).reshape(
            2, steps, batch, d_in)
        return (dxs[0] + dxs[1, ::-1]).transpose(1, 0, 2)

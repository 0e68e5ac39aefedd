import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from deviceprint import model, nn
from deviceprint.errors import (ConfigError, DataError, DependencyError,
                               FormatError, LabelError, ShapeError)
from deviceprint.nn import gradcheck
from deviceprint.nn.recurrent import GATES, PEEPHOLES, SLOTS, _sigmoid


# --- conv3d -----------------------------------------------------------------

def test_conv3d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 2, 4, 4))
    kernel = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        kernel[c, c, 0, 0, 0] = 1.0
    out = nn.conv3d_forward(x, kernel, np.zeros(3))
    assert np.allclose(out, x)


def test_conv3d_all_ones_sum():
    x = np.ones((1, 1, 2, 2, 2))
    kernel = np.ones((1, 1, 2, 2, 2))
    out = nn.conv3d_forward(x, kernel, np.zeros(1))
    assert out.shape == (1, 1, 1, 1, 1)
    assert out.reshape(()) == pytest.approx(8.0)


def test_conv3d_direct_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    kernel = rng.standard_normal((3, 2, 2, 2, 2))
    bias = rng.standard_normal(3)
    out = nn.conv3d_forward(x, kernel, bias)
    expected = np.zeros((1, 3, 3, 3, 3))
    for co in range(3):
        for t in range(3):
            for h in range(3):
                for w in range(3):
                    acc = bias[co]
                    for c in range(2):
                        for dt in range(2):
                            for dh in range(2):
                                for dw in range(2):
                                    acc += (x[0, c, t + dt, h + dh, w + dw]
                                            * kernel[co, c, dt, dh, dw])
                    expected[0, co, t, h, w] = acc
    assert np.max(np.abs(out - expected)) < 1e-10


def test_conv3d_strided_padded_shapes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1, 5, 7, 6))
    kernel = rng.standard_normal((2, 1, 3, 3, 3))
    out = nn.conv3d_forward(x, kernel, np.zeros(2), stride=(1, 2, 2),
                            padding=(1, 1, 0))
    assert out.shape == (2, 2, 5, 4, 2)
    with pytest.raises(ShapeError):
        nn.conv3d_forward(x, rng.standard_normal((2, 1, 3, 3, 9)), np.zeros(2))


def test_conv3d_backward_zero_grad():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 3, 3, 3))
    kernel = rng.standard_normal((2, 2, 2, 2, 2))
    out = nn.conv3d_forward(x, kernel, np.zeros(2))
    gx, gk, gb = nn.conv3d_backward(np.zeros_like(out), x, kernel)
    assert not gx.any() and not gk.any() and not gb.any()


def test_conv3d_backward_single_path():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 1, 3, 3, 3))
    kernel = rng.standard_normal((1, 1, 2, 2, 2))
    out = nn.conv3d_forward(x, kernel, np.zeros(1))
    grad_out = np.zeros_like(out)
    grad_out[0, 0, 1, 1, 1] = 1.0
    _, gk, _ = nn.conv3d_backward(grad_out, x, kernel)
    assert np.allclose(gk[0, 0], x[0, 0, 1:3, 1:3, 1:3])


def test_conv3d_forward_memory_stays_per_sample():
    # the eval shape at G=64: a whole-batch patch matrix would need
    # 50 * 72 * 3840 doubles (110 MB) on top of input and output
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 8, 5, 12, 64))
    kernel = rng.standard_normal((16, 8, 1, 3, 3))
    padded_bytes = 50 * 8 * 5 * 14 * 66 * 8
    out_bytes = 50 * 16 * 5 * 12 * 64 * 8
    tracemalloc.start()
    try:
        out = nn.conv3d_forward(x, kernel, np.zeros(16), padding=(0, 1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (50, 16, 5, 12, 64)
    assert peak < 2 * (padded_bytes + out_bytes)


@pytest.mark.parametrize("train", [False, True])
def test_conv3d_layer_keeps_no_patches(train):
    # the bound of the functional forward above; a kept [B, K, P] patch
    # array would be 110 MB and outlive the call
    rng = np.random.default_rng(5)
    layer = nn.Conv3d(nn.ParamStore(), "conv", 8, 16, (1, 3, 3),
                      padding=(0, 1, 1), rng=rng)
    x = rng.standard_normal((50, 8, 5, 12, 64))
    padded_bytes = 50 * 8 * 5 * 14 * 66 * 8
    out_bytes = 50 * 16 * 5 * 12 * 64 * 8
    tracemalloc.start()
    try:
        out = layer.forward(x, train=train)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (50, 16, 5, 12, 64)
    assert peak < 2 * (padded_bytes + out_bytes)
    assert current < out_bytes + 2**20


@pytest.mark.parametrize("geometry", [
    # conv1 of the model at G=8, with kernel_t 1 and 3
    ((16, 8, 5, 12, 8), 16, (1, 3, 3), 1, (0, 1, 1)),
    ((16, 8, 5, 12, 8), 16, (3, 3, 3), 1, (1, 1, 1)),
    # check_conv3d_strided
    ((2, 2, 3, 6, 7), 3, (3, 3, 2), (1, 2, 2), (1, 1, 0)),
    # an unfolded pointwise expansion at G=8
    ((16, 1, 5, 12, 8), 8, (1, 1, 1), 1, 0),
])
def test_conv3d_layer_gradients_match_functional(geometry):
    shape, c_out, kernel, stride, padding = geometry
    rng = np.random.default_rng(8)
    layer = nn.Conv3d(nn.ParamStore(), "conv", shape[1], c_out, kernel,
                      stride=stride, padding=padding, rng=rng)
    x = rng.standard_normal(shape)
    out = layer.forward(x, train=True)
    assert np.array_equal(out, nn.conv3d_forward(
        x, layer.w.value, layer.b.value, stride, padding))
    grad_out = rng.standard_normal(out.shape)
    grad_x = layer.backward(grad_out)
    want_x, want_k, want_b = nn.conv3d_backward(
        grad_out, x, layer.w.value, stride, padding)
    assert np.array_equal(grad_x, want_x)
    assert np.array_equal(layer.w.grad, want_k)
    assert np.array_equal(layer.b.grad, want_b)


def test_model_backward_gives_pointwise_conv_parameter_gradients():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=3)
    net = model.build_model(arch, seed=2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 1, 5, 12, 8))
    net.params.zero_grads()
    logits = net.forward(x, train=True)
    assert net.backward(rng.standard_normal(logits.shape)) is None
    assert np.any(net.pw.w.grad != 0.0)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("g", [8, 64])
@pytest.mark.parametrize("kt", [1, 3])
@pytest.mark.parametrize("train", [True, False])
def test_expanded_conv3d_matches_pointwise_then_conv(g, kt, train):
    # conv1 of the model with the pointwise expansion folded in, against
    # the two functional convs it replaces; the nonzero expansion bias is
    # what the padded border map carries
    rng = np.random.default_rng(kt * g)
    store = nn.ParamStore()
    pw = nn.PointwiseExpansion(store, "pw", 8, rng)
    pad = (kt // 2, 1, 1)
    layer = nn.ExpandedConv3d(store, "conv1", pw, 16, (kt, 3, 3),
                              padding=pad, rng=rng)
    pw.b.value[:] = rng.uniform(-1, 1, 8)
    layer.b.value[:] = rng.uniform(-1, 1, 16)
    x = rng.standard_normal((16, 1, 5, 12, g))
    mid = nn.conv3d_forward(x, pw.w.value, pw.b.value)
    out = layer.forward(x, train=train)
    assert _rel(out, nn.conv3d_forward(mid, layer.w.value, layer.b.value,
                                       padding=pad)) < 1e-12
    if not train:
        return
    grad_out = rng.standard_normal(out.shape)
    assert layer.backward(grad_out) is None
    grad_mid, want_w, want_b = nn.conv3d_backward(grad_out, mid,
                                                  layer.w.value, padding=pad)
    _, want_pw_w, want_pw_b = nn.conv3d_backward(grad_mid, x, pw.w.value)
    for got, want in ((layer.w.grad, want_w), (layer.b.grad, want_b),
                      (pw.w.grad, want_pw_w), (pw.b.grad, want_pw_b)):
        assert _rel(got, want) < 1e-12


def test_conv3d_finite_difference():
    assert gradcheck.check_conv3d(seed=0) < 1e-6
    assert gradcheck.check_conv3d_strided(seed=0) < 1e-6
    assert gradcheck.check_pointwise_conv(seed=0) < 1e-6
    assert gradcheck.check_expanded_conv3d(seed=0) < 1e-6


# --- batch norm ---------------------------------------------------------------

def test_batchnorm_train_contract():
    rng = np.random.default_rng(5)
    store = nn.ParamStore()
    bn = nn.BatchNorm3d(store, "bn", 3)
    x = rng.standard_normal((4, 3, 2, 5, 5)) * 2.0 + 1.0
    out = bn.forward(x, train=True)
    means = out.mean(axis=(0, 2, 3, 4))
    variances = out.var(axis=(0, 2, 3, 4))
    assert np.max(np.abs(means)) < 1e-9
    assert np.max(np.abs(variances - 1.0)) < 1e-4


def test_batchnorm_affine_contract():
    rng = np.random.default_rng(6)
    store = nn.ParamStore()
    bn = nn.BatchNorm3d(store, "bn", 2)
    bn.gamma.value[:] = 2.0
    bn.beta.value[:] = 3.0
    x = rng.standard_normal((8, 2, 2, 4, 4))
    out = bn.forward(x, train=True)
    assert np.allclose(out.mean(axis=(0, 2, 3, 4)), 3.0, atol=1e-9)
    assert np.allclose(out.std(axis=(0, 2, 3, 4)), 2.0, atol=1e-3)


def test_batchnorm_running_stats_inference():
    rng = np.random.default_rng(7)
    store = nn.ParamStore()
    bn = nn.BatchNorm3d(store, "bn", 2, momentum=0.0)
    x = rng.standard_normal((4, 2, 2, 3, 3)) * 3.0 + 0.5
    bn.forward(x, train=True)
    assert np.allclose(bn.running_mean, x.mean(axis=(0, 2, 3, 4)))
    out = bn.forward(x, train=False)
    assert np.max(np.abs(out.mean(axis=(0, 2, 3, 4)))) < 1e-9


def test_batchnorm_degenerate_batch():
    store = nn.ParamStore()
    bn = nn.BatchNorm3d(store, "bn", 2)
    with pytest.raises(DataError):
        bn.forward(np.zeros((1, 2, 1, 1, 1)), train=True)


def test_batchnorm_finite_difference():
    assert gradcheck.check_batchnorm3d(seed=0) < 1e-6
    assert gradcheck.check_batchnorm3d_eval(seed=0) < 1e-6


def test_batchnorm_inference_memory():
    # one output-sized array and nothing else full-size: no normalized copy
    rng = np.random.default_rng(10)
    bn = nn.BatchNorm3d(nn.ParamStore(), "bn", 16)
    bn.running_mean = rng.standard_normal(16)
    bn.running_var = rng.uniform(0.5, 2.0, 16)
    x = rng.standard_normal((50, 16, 5, 12, 64))
    tracemalloc.start()
    try:
        out = bn.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
    assert np.allclose(out, (x - bn.running_mean.reshape(1, -1, 1, 1, 1))
                       * inv_std.reshape(1, -1, 1, 1, 1))
    assert peak < 2 * x.nbytes


# --- pooling -----------------------------------------------------------------

def test_pools_constant_input():
    x = np.full((1, 1, 2, 4, 4), 3.25)
    assert np.allclose(nn.maxpool3d(x, (1, 2, 2)), 3.25)
    assert np.allclose(nn.avgpool3d(x, (1, 2, 2)), 3.25)


def test_avgpool_patch_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 1, 2, 2)
    out = nn.avgpool3d(x, (1, 2, 2))
    assert out.reshape(()) == pytest.approx(2.5)


def test_maxpool_tie_routes_first_index():
    x = np.zeros((1, 1, 1, 2, 2))
    grad = np.ones((1, 1, 1, 1, 1))
    gx = nn.maxpool3d_backward(grad, x, (1, 2, 2))
    assert gx[0, 0, 0, 0, 0] == 1.0
    assert gx.sum() == 1.0


def test_pools_drop_remainder_and_need_stride_equal_window():
    x = np.arange(15.0).reshape(1, 1, 1, 3, 5)
    assert np.array_equal(nn.maxpool3d(x, (1, 2, 2)).ravel(), [6.0, 8.0])
    gx = nn.maxpool3d_backward(np.ones((1, 1, 1, 1, 2)), x, (1, 2, 2))
    assert gx.sum() == 2.0 and not gx[..., 2, :].any() and not gx[..., 4].any()


def _max_routing_inputs():
    rng = np.random.default_rng(11)
    # post-ReLU: many windows are all zero or hold repeated maxima
    tied = np.maximum(np.round(rng.standard_normal((4, 3, 2, 6, 8)), 1), 0.0)
    with_nan = rng.standard_normal((2, 2, 1, 4, 4))
    with_nan[0, 1, 0, 2, 3] = np.nan
    with_nan[1, 0, 0, 0, 0] = np.nan
    return [tied, with_nan]


@pytest.mark.parametrize("x", _max_routing_inputs())
def test_maxpool_layer_backward_matches_functional(x):
    layer = nn.MaxPool3d((1, 2, 2))
    out = layer.forward(x, train=True)
    grad_out = np.random.default_rng(12).standard_normal(out.shape)
    got = layer.backward(grad_out)
    want = nn.maxpool3d_backward(grad_out, x, (1, 2, 2))
    assert np.array_equal(got, want)
    assert np.count_nonzero(got) <= np.count_nonzero(~np.isnan(out))


def test_pool_finite_differences():
    assert gradcheck.check_maxpool3d(seed=0) < 1e-6
    assert gradcheck.check_avgpool3d(seed=0) < 1e-6


# --- LSTM ---------------------------------------------------------------------

# The per-gate cell of one direction, one step at a time: the reference
# that the lockstep `BiLstm` is checked against. Each gate's pre-activation
# is its two products, then its peephole term, then its bias.

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


def _direction(layer, side):
    """Direction `side` (0 forward, 1 backward) of a BiLstm as the per-gate
    cell reads it: w_<g>x, w_<g>h, b_<g> and the peepholes w_<g>c, each
    with `value` and `grad` views of its slice of the layer's blocks, so
    that the reference reads and accumulates into the arrays the lockstep
    layer uses. Take it after the store is packed: the views are of the
    arrays the blocks hold now."""
    hid = layer.hidden

    def part(block, *index):
        index = (side,) + index
        return SimpleNamespace(value=block.value[index],
                               grad=block.grad[index])

    cell = SimpleNamespace(d_in=layer.wx.value.shape[1], hidden=hid)
    for g in GATES:
        k = SLOTS.index(g)
        cols = slice(k * hid, (k + 1) * hid)
        setattr(cell, f"w_{g}x", part(layer.wx, slice(None), cols))
        setattr(cell, f"w_{g}h", part(layer.wh, slice(None), cols))
        setattr(cell, f"b_{g}", part(layer.b, cols))
    for k, g in enumerate(PEEPHOLES):
        setattr(cell, f"w_{g}c", part(layer.wp, k))
    return cell


def _gate_parts(cell):
    """name -> the per-gate part of a `_direction` cell, w_<g>x, w_<g>h,
    b_<g> and w_<g>c."""
    return {name: part for name, part in vars(cell).items()
            if isinstance(part, SimpleNamespace)}


def _cell(d_in, hidden, rng):
    """A BiLstm's packed store and its forward direction, the reference's
    parameters. The store is packed before the views are taken, since
    packing moves every block into the flat buffers and views taken
    earlier would keep reading and writing the old arrays."""
    store = nn.ParamStore()
    layer = nn.BiLstm(store, "cell", d_in, hidden, rng=rng)
    store.pack()
    return store, _direction(layer, 0)


def _zero_params(d_in, hidden):
    store, params = _cell(d_in, hidden, np.random.default_rng(0))
    for _, p in store.items():
        p.value[...] = 0.0
    return store, params


def test_lstm_step_zero_case():
    _, params = _zero_params(3, 4)
    h, c = lstm_step(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)),
                     params)
    assert not h.any() and not c.any()


def test_lstm_step_memory_passthrough():
    _, params = _zero_params(3, 4)
    params.b_f.value[:] = 30.0   # forget gate pinned open
    params.b_i.value[:] = -30.0  # input gate pinned shut
    c_prev = np.array([[0.3, -0.7, 1.1, 0.0]])
    h, c = lstm_step(np.ones((1, 3)), np.zeros((1, 4)), c_prev, params)
    assert np.max(np.abs(c - c_prev)) < 1e-6


def test_lstm_output_gate_peeks_new_cell():
    # with w_oc nonzero and every other weight zero, o depends on C_t
    store, params = _zero_params(1, 1)
    params.w_oc.value[:] = 5.0
    params.b_i.value[:] = 30.0  # input gate open
    params.w_cx.value[:] = 10.0  # candidate follows x
    h, c = lstm_step(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
                     params)
    expected_c = 1.0 * np.tanh(10.0)
    sigma = 1.0 / (1.0 + np.exp(-5.0 * expected_c))
    assert c[0, 0] == pytest.approx(expected_c, abs=1e-9)
    assert h[0, 0] == pytest.approx(sigma * np.tanh(expected_c), abs=1e-6)


def test_lstm_bptt_finite_difference():
    # the reference's own backward against finite differences, so that the
    # oracle the lockstep layer is held to is itself checked
    rng = np.random.default_rng(0)
    store, params = _cell(3, 4, rng)
    seq = rng.standard_normal((2, 3, 3))
    probe = rng.standard_normal((2, 3, 4))

    def loss():
        return float(np.sum(_run_direction(seq, params)[0] * probe))

    store.zero_grads()
    grad_seq = _run_direction_backward(probe, _run_direction(seq, params)[1],
                                       params)
    errs = [gradcheck.rel_error(grad_seq, gradcheck.numerical_grad(loss, seq))]
    # each gate's weights, bias and peephole at its own scale; a gradient
    # the backward never reached would compare zero with zero
    for part in _gate_parts(params).values():
        assert part.grad.any()
        errs.append(gradcheck.rel_error(
            part.grad, gradcheck.numerical_grad(loss, part.value)))
    assert max(errs) < 1e-6


def test_lstm_step_check_runs_the_shipped_layer():
    # criterion 3's lstm_step slot checks the BiLstm the network runs, at
    # one step
    for seed in range(3):
        assert gradcheck.check_lstm_step(seed) == gradcheck.check_bilstm(
            seed, steps=1)
        assert gradcheck.check_lstm_step(seed) < 1e-6


def test_bilstm_degenerate_sequence():
    rng = np.random.default_rng(8)
    store = nn.ParamStore()
    layer = nn.BiLstm(store, "b", 3, 4, rng=rng)
    seq = rng.standard_normal((2, 1, 3))
    out = layer.forward(seq)
    h_f, _ = lstm_step(seq[:, 0], np.zeros((2, 4)), np.zeros((2, 4)),
                       _direction(layer, 0))
    h_b, _ = lstm_step(seq[:, 0], np.zeros((2, 4)), np.zeros((2, 4)),
                       _direction(layer, 1))
    assert np.allclose(out[:, 0, :4], h_f)
    assert np.allclose(out[:, 0, 4:], h_b)


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(9)
    store = nn.ParamStore()
    layer = nn.BiLstm(store, "b", 3, 4, rng=rng)
    seq = rng.standard_normal((2, 5, 3))
    # the same weights with the directions' sides exchanged
    swapped_layer = nn.BiLstm(nn.ParamStore(), "s", 3, 4)
    for block in ("wx", "wh", "b", "wp"):
        getattr(swapped_layer, block).value[...] = getattr(
            layer, block).value[::-1]
    base = layer.forward(seq)
    swapped = swapped_layer.forward(seq[:, ::-1])[:, ::-1]
    assert np.allclose(swapped[:, :, :4], base[:, :, 4:])
    assert np.allclose(swapped[:, :, 4:], base[:, :, :4])


def test_bilstm_init_draw_order():
    # per direction, per gate in i, f, o, c order the input then the
    # recurrent weights, then the i, f and o peepholes; each gate's draw
    # fills its columns of the blocks, in i, f, c, o order
    d_in, hid = 3, 2
    rng = np.random.default_rng(31)
    layer = nn.BiLstm(nn.ParamStore(), "b", d_in, hid, rng=rng)
    want = np.random.default_rng(31)
    bound_x, bound_h = 1.0 / np.sqrt(d_in), 1.0 / np.sqrt(hid)
    for side in (0, 1):
        for g, slot in (("i", 0), ("f", 1), ("o", 3), ("c", 2)):
            cols = slice(slot * hid, (slot + 1) * hid)
            assert np.array_equal(layer.wx.value[side, :, cols],
                                  want.uniform(-bound_x, bound_x, (d_in, hid)))
            assert np.array_equal(layer.wh.value[side, :, cols],
                                  want.uniform(-bound_h, bound_h, (hid, hid)))
        for k in range(3):
            assert np.array_equal(layer.wp.value[side, k],
                                  want.uniform(-bound_h, bound_h, hid))
    assert not layer.b.value.any()
    assert rng.random() == want.random()  # nothing else was drawn


def test_bilstm_finite_difference():
    assert gradcheck.check_bilstm(seed=0, steps=4) < 1e-6


def test_run_direction_matches_step():
    rng = np.random.default_rng(10)
    _, params = _cell(3, 4, rng)
    seq = rng.standard_normal((2, 4, 3))
    outputs, _ = _run_direction(seq, params)
    h = np.zeros((2, 4))
    c = np.zeros((2, 4))
    for t in range(4):
        h, c = lstm_step(seq[:, t], h, c, params)
        assert np.allclose(outputs[:, t], h)


def _network_bilstm(seed):
    """A BiLstm at the network's G=8 shape: B=16, T=5, D=32, H=64, with
    nonzero biases so that the order they are added in shows."""
    rng = np.random.default_rng(seed)
    store = nn.ParamStore()
    layer = nn.BiLstm(store, "bilstm", 32, 64, rng=rng)
    store.pack()
    for side in (0, 1):
        for g in "ifoc":
            getattr(_direction(layer, side), f"b_{g}").value[:] = rng.uniform(
                -0.5, 0.5, 64)
    return store, layer, rng.standard_normal((16, 5, 32))


def test_bilstm_forward_equals_lstm_step_per_direction():
    _, layer, seq = _network_bilstm(20)
    out = layer.forward(seq)
    for side, half, order in ((0, slice(0, 64), range(5)),
                              (1, slice(64, 128), range(4, -1, -1))):
        params = _direction(layer, side)
        h = c = np.zeros((16, 64))
        for t in order:
            h, c = lstm_step(seq[:, t], h, c, params)
            assert np.array_equal(out[:, t, half], h)


def _per_step_bptt(layer, seq, grad_out):
    """Each direction on its own, one gate and one step at a time
    (`_run_direction_backward`): the reference for the lockstep backward."""
    hid = layer.hidden
    fwd, bwd = _direction(layer, 0), _direction(layer, 1)
    _, caches_f = _run_direction(seq, fwd)
    _, caches_b = _run_direction(np.ascontiguousarray(seq[:, ::-1]), bwd)
    dseq_f = _run_direction_backward(
        np.ascontiguousarray(grad_out[:, :, :hid]), caches_f, fwd)
    dseq_b = _run_direction_backward(
        np.ascontiguousarray(grad_out[:, ::-1, hid:]), caches_b, bwd)
    return dseq_f + dseq_b[:, ::-1]


def test_bilstm_gradients_match_per_step_bptt():
    store, layer, seq = _network_bilstm(21)
    grad_out = np.random.default_rng(22).standard_normal((16, 5, 128))
    store.zero_grads()
    want_dseq = _per_step_bptt(layer, seq, grad_out)
    # each gate of each direction is compared at its own scale
    want = {(side, name): part.grad.copy() for side in (0, 1)
            for name, part in _gate_parts(_direction(layer, side)).items()}
    store.zero_grads()
    layer.forward(seq, train=True)
    got_dseq = layer.backward(grad_out)

    def rel(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    assert rel(got_dseq, want_dseq) < 1e-10
    assert max(rel(_gate_parts(_direction(layer, side))[name].grad, ref)
               for (side, name), ref in want.items()) < 1e-10


def _masked_sigmoid(z):
    """Each sign's branch on its own elements: the reference for
    `_sigmoid`."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    z = np.concatenate([np.random.default_rng(23).normal(0, 30, 100_000),
                        [0.0, -0.0, np.inf, -np.inf]])
    with np.errstate(all="raise"):
        assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
    # exp(-800) underflows, so both formulas raise under all="raise";
    # without that flag they agree there too
    extreme = np.array([800.0, -800.0])
    for sigmoid in (_sigmoid, _masked_sigmoid):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            sigmoid(extreme)
    with np.errstate(all="raise", under="ignore"):
        assert (_sigmoid(extreme).tobytes()
                == _masked_sigmoid(extreme).tobytes())


# --- attention -----------------------------------------------------------------

def test_attention_single_step_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 1, 5))
    assert np.allclose(nn.SelfAttention().forward(x, train=True), x)
    assert np.allclose(nn.SelfAttention().forward(x), x)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 6, 4))
    from deviceprint.nn.attention import _attention_weights
    weights = _attention_weights(x)
    assert np.all(weights >= 0)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-9


def test_attention_finite_difference():
    assert gradcheck.check_attention(seed=0) < 1e-6


# --- loss -----------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = np.zeros((3, 45))
    labels = np.eye(45)[[0, 7, 44]]
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(np.log(45.0), abs=1e-12)


def test_cross_entropy_confident():
    logits = np.zeros((1, 5))
    logits[0, 2] = 1e6
    labels = np.eye(5)[[2]]
    loss, _ = nn.softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(LabelError):
        nn.softmax_cross_entropy(np.zeros((2, 3)), np.full((2, 3), 0.5))
    with pytest.raises(LabelError):
        nn.softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 3)))


def test_cross_entropy_finite_difference():
    assert gradcheck.check_softmax_cross_entropy(seed=0) < 1e-7


def test_dense_finite_difference():
    assert gradcheck.check_dense(seed=0) < 1e-6


# --- ReLU -------------------------------------------------------------------------

def _relu_input():
    """Finite values with signed zeros and repeated entries (ties)."""
    rng = np.random.default_rng(16)
    x = rng.choice([-2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 3.0],
                   size=(2, 3, 2, 4, 4))
    x[0] += rng.standard_normal(x[0].shape)
    return x


def test_relu_forward_matches_masked_product():
    x = _relu_input()
    out = nn.ReLU().forward(x, train=True)
    assert np.array_equal(out, x * (x > 0))
    assert not np.any(np.signbit(out))


def test_relu_backward_is_the_masked_gradient():
    x = _relu_input()
    relu = nn.ReLU()
    relu.forward(x, train=True)
    g = np.random.default_rng(17).standard_normal(x.shape)
    grad = relu.backward(g)
    expected = g * (x > 0)
    assert grad.tobytes() == expected.tobytes()


def test_relu_inference_keeps_no_mask():
    relu = nn.ReLU()
    relu.forward(_relu_input(), train=True)
    relu.forward(_relu_input(), train=False)
    assert relu._mask is None


# --- inference mode keeps no backward state -----------------------------------

def _stateful_layers():
    rng = np.random.default_rng(13)
    store = nn.ParamStore()
    cases = [
        (nn.Conv3d(store, "conv", 2, 3, (1, 3, 3), padding=(0, 1, 1), rng=rng),
         (2, 2, 2, 4, 4)),
        (nn.ExpandedConv3d(store, "conv1",
                           nn.PointwiseExpansion(store, "pw", 2, rng), 3,
                           (3, 3, 3), padding=1, rng=rng), (2, 1, 2, 4, 4)),
        (nn.ReLU(), (2, 3, 4)),
        (nn.MaxPool3d((1, 2, 2)), (2, 2, 1, 4, 4)),
        (nn.AvgPool3d((1, 2, 2)), (2, 2, 1, 4, 4)),
        (nn.BiLstm(store, "bilstm", 3, 4, rng=rng), (2, 3, 3)),
        (nn.SelfAttention(), (2, 3, 4)),
        (nn.Dense(store, "fc", 4, 5, rng=rng), (3, 4)),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("layer, shape", _stateful_layers())
def test_backward_after_inference_forward_raises(layer, shape):
    x = np.random.default_rng(14).standard_normal(shape)
    out = layer.forward(x, train=True)
    assert np.array_equal(layer.forward(x, train=False), out)
    with pytest.raises(DependencyError, match="train-mode forward"):
        layer.backward(np.ones_like(out))
    layer.forward(x, train=True)
    layer.backward(np.ones_like(out))


def test_batchnorm_inference_backward_needs_a_live_input():
    # inference keeps a weak reference: backward works while the caller
    # holds the input, and raises once the input is gone
    rng = np.random.default_rng(15)
    bn = nn.BatchNorm3d(nn.ParamStore(), "bn", 2)
    x = rng.standard_normal((2, 2, 1, 3, 3))
    out = bn.forward(x, train=False)
    assert bn.backward(np.ones_like(out)).shape == x.shape
    bn.forward(rng.standard_normal(x.shape), train=False)
    with pytest.raises(DependencyError, match="train-mode forward"):
        bn.backward(np.ones_like(out))


# --- Adam -------------------------------------------------------------------------

def test_adam_first_step_identity():
    store = nn.ParamStore()
    p = store.add("w", np.zeros(4))
    state = nn.AdamState(store, alpha=0.1, eps=1e-8)
    p.grad[:] = 1.0
    nn.adam_step(store, state)
    assert np.allclose(p.value, -0.1 / (1 + 1e-8), atol=1e-12)


def test_adam_zero_gradient_no_move():
    rng = np.random.default_rng(13)
    store = nn.ParamStore()
    p = store.add("w", rng.standard_normal(4))
    start = p.value.copy()
    state = nn.AdamState(store, alpha=0.1)
    p.zero_grad()
    nn.adam_step(store, state)
    assert np.array_equal(p.value, start)
    # once moments carry history, a zero gradient only decays them
    p.grad[:] = 1.0
    nn.adam_step(store, state)
    m_before = state.flat_m.copy()
    v_before = state.flat_v.copy()
    p.zero_grad()
    nn.adam_step(store, state)
    assert np.allclose(state.flat_m, 0.9 * m_before)
    assert np.allclose(state.flat_v, 0.999 * v_before)


def test_adam_quadratic_convergence():
    store = nn.ParamStore()
    p = store.add("w", np.array([5.0, -3.0]))
    state = nn.AdamState(store, alpha=0.1)
    for _ in range(200):
        store.zero_grads()
        p.grad[:] = 2.0 * p.value
        nn.adam_step(store, state)
    assert np.linalg.norm(p.value) < 0.1


def _adam_loop(store, m, v, step, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
    """One parameter at a time: the reference for the flat adam_step."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, p in store.items():
        m[name] *= beta1
        m[name] += (1.0 - beta1) * p.grad
        v[name] *= beta2
        v[name] += (1.0 - beta2) * p.grad ** 2
        p.value -= alpha * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def test_adam_step_matches_the_per_parameter_loop():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5)
    flat, loop = (model.build_model(arch, seed=24) for _ in range(2))
    state = nn.AdamState(flat.params, alpha=0.002)
    m = {name: np.zeros_like(p.value) for name, p in loop.params.items()}
    v = {name: np.zeros_like(p.value) for name, p in loop.params.items()}
    rng = np.random.default_rng(25)
    for step in range(1, 4):
        for (_, p), (_, q) in zip(flat.params.items(), loop.params.items()):
            p.grad[...] = q.grad[...] = rng.standard_normal(p.value.shape)
        nn.adam_step(flat.params, state)
        _adam_loop(loop.params, m, v, step, alpha=0.002)
    flat_m, flat_v = (flat.params.views(buf)
                      for buf in (state.flat_m, state.flat_v))
    for (name, p), (_, q) in zip(flat.params.items(), loop.params.items()):
        assert p.value.tobytes() == q.value.tobytes()
        assert flat_m[name].tobytes() == m[name].tobytes()
        assert flat_v[name].tobytes() == v[name].tobytes()


# --- parameters and checkpoints -----------------------------------------------------

def test_packed_store_parameters_and_moments_are_flat_views():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5)
    store = model.build_model(arch, seed=26).params
    state = nn.AdamState(store)
    m, v = store.views(state.flat_m), store.views(state.flat_v)
    for name, p in store.items():
        assert np.shares_memory(p.value, store.flat_value)
        assert np.shares_memory(p.grad, store.flat_grad)
        assert np.shares_memory(m[name], state.flat_m)
        assert np.shares_memory(v[name], state.flat_v)
        assert m[name].shape == v[name].shape == p.value.shape
    store.flat_grad[:] = 1.0
    store.zero_grads()
    assert not any(p.grad.any() for _, p in store.items())


def test_packed_store_takes_no_more_parameters():
    store = nn.ParamStore()
    first = store.add("a", np.arange(3.0))
    store.pack()
    assert np.array_equal(first.value, np.arange(3.0))
    with pytest.raises(ConfigError, match="packed"):
        store.add("b", np.zeros(2))
    assert [name for name, _ in store.items()] == ["a"]


def test_load_state_writes_through_the_flat_views():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5)
    source, net = model.build_model(arch, seed=27), model.build_model(arch)
    flat = net.params.flat_value
    net.load_state(source.state_arrays())
    assert net.params.flat_value is flat
    assert np.array_equal(flat, source.params.flat_value)


def test_state_arrays_hold_the_bilstm_as_four_blocks():
    arch = model.ArchitectureConfig(input_dims=(12, 8, 5), n_classes=5)
    arrays = model.build_model(arch).state_arrays()
    d_in, hid = arch.flatten_size(), arch.hidden
    assert [(name, value.shape) for name, value in arrays.items()
            if name.startswith("bilstm.")] == [
        ("bilstm.wx", (2, d_in, 4 * hid)), ("bilstm.wh", (2, hid, 4 * hid)),
        ("bilstm.b", (2, 4 * hid)), ("bilstm.wp", (2, 3, hid))]
    names = list(arrays)
    assert names.index("bilstm.wx") == names.index("bn2.beta") + 1
    assert names.index("fc.w") == names.index("bilstm.wp") + 1


def test_param_store_unique_names():
    store = nn.ParamStore()
    store.add("a", np.zeros(2))
    with pytest.raises(Exception):
        store.add("a", np.zeros(2))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    arrays = {
        "conv.w": rng.standard_normal((2, 3, 1, 2, 2)),
        "fc.b": rng.standard_normal(5),
        "scalar": np.float64(3.5),
    }
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, arrays)
    back = nn.load_checkpoint(path)
    assert set(back) == set(arrays)
    for name in arrays:
        assert np.array_equal(back[name], np.asarray(arrays[name]))
    assert path.read_bytes()[:5] == b"STRL1"


@pytest.mark.parametrize("raw", [b"STRL1", b"STRL1\x01\x00",
                                 b"STRL1\x01\x00\x00"],
                         ids=["5_bytes", "7_bytes", "8_bytes"])
def test_checkpoint_truncated_entry_count(tmp_path, raw):
    path = tmp_path / "short.ckpt"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="truncated"):
        nn.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, {"fc.w": np.ones((2, 3)), "fc.b": np.zeros(3)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="1 bytes after"):
        nn.load_checkpoint(path)


def test_checkpoint_with_adam_suffixes(tmp_path):
    store = nn.ParamStore()
    p = store.add("fc.w", np.ones((2, 2)))
    state = nn.AdamState(store, alpha=0.01)
    p.grad[:] = 0.5
    nn.adam_step(store, state)
    arrays = {name: par.value for name, par in store.items()}
    m, v = store.views(state.flat_m), store.views(state.flat_v)
    for name, _ in store.items():
        arrays[f"{name}.m"] = m[name]
        arrays[f"{name}.v"] = v[name]
    arrays["adam.step"] = np.float64(state.step_count)
    path = tmp_path / "with_adam.ckpt"
    nn.save_checkpoint(path, arrays)
    back = nn.load_checkpoint(path)
    assert np.array_equal(back["fc.w.m"], m["fc.w"])
    assert back["adam.step"] == 1.0


def test_gradcheck_suite_all_pass():
    results = gradcheck.run_all(seed=0)
    assert all(passed for _, _, passed in results)
    assert max(err for _, err, _ in results) < 1e-4

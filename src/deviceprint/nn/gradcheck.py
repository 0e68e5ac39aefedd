"""Central finite-difference verification of every layer's backward pass.

Each check builds a small randomized case, projects the layer output onto a
fixed random direction to get a scalar loss, and compares analytic
gradients against (f(x+h) - f(x-h)) / 2h elementwise.
"""

import numpy as np

from .attention import SelfAttention
from .conv import (AvgPool3d, Conv3d, ExpandedConv3d, MaxPool3d,
                   PointwiseExpansion)
from .layers import BatchNorm3d, Dense, ReLU, softmax_cross_entropy
from .params import ParamStore
from .recurrent import BiLstm

H_STEP = 1e-5


def numerical_grad(f, arr, h=H_STEP):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        saved = arr[idx]
        arr[idx] = saved + h
        f_plus = f()
        arr[idx] = saved - h
        f_minus = f()
        arr[idx] = saved
        grad[idx] = (f_plus - f_minus) / (2 * h)
        it.iternext()
    return grad


def rel_error(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def _check_layer(layer, x, param_list, train=True, rng=None):
    """Max rel. error over input and parameter gradients of one layer; a
    layer whose backward returns None has parameter gradients only."""
    rng = rng if rng is not None else np.random.default_rng(0)
    probe = rng.standard_normal(layer.forward(x, train=train).shape)

    def loss():
        return float(np.sum(layer.forward(x, train=train) * probe))

    for p in param_list:
        p.zero_grad()
    layer.forward(x, train=train)
    grad_x = layer.backward(probe)
    errs = [] if grad_x is None else [rel_error(grad_x,
                                                numerical_grad(loss, x))]
    for p in param_list:
        errs.append(rel_error(p.grad, numerical_grad(loss, p.value)))
    return max(errs)


def check_conv3d(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = Conv3d(store, "conv", 2, 3, (2, 2, 2), stride=1, padding=(0, 1, 1),
                   rng=rng)
    x = rng.standard_normal((2, 2, 3, 4, 4))
    return _check_layer(layer, x, [layer.w, layer.b], rng=rng)


def check_conv3d_strided(seed=0):
    # stride 2 with a dropped remainder on H and W exercises the dilated
    # input-gradient path
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = Conv3d(store, "conv", 2, 3, (3, 3, 2), stride=(1, 2, 2),
                   padding=(1, 1, 0), rng=rng)
    x = rng.standard_normal((2, 2, 3, 6, 7))
    return _check_layer(layer, x, [layer.w, layer.b], rng=rng)


def check_pointwise_conv(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = Conv3d(store, "pw", 2, 4, (1, 1, 1), rng=rng)
    x = rng.standard_normal((2, 2, 3, 3, 3))
    return _check_layer(layer, x, [layer.w, layer.b], rng=rng)


def check_expanded_conv3d(seed=0):
    # a pointwise expansion folded into a 3x3x3 conv with padding on every
    # axis: the nonzero expansion bias reaches the output only inside the
    # padded border map
    rng = np.random.default_rng(seed)
    store = ParamStore()
    pw = PointwiseExpansion(store, "pw", 3, rng)
    layer = ExpandedConv3d(store, "conv", pw, 2, (3, 3, 3), padding=1, rng=rng)
    pw.b.value[:] = rng.uniform(-0.5, 0.5, 3)
    layer.b.value[:] = rng.uniform(-0.5, 0.5, 2)
    x = rng.standard_normal((2, 1, 3, 4, 3))
    return _check_layer(layer, x, [pw.w, pw.b, layer.w, layer.b], rng=rng)


def check_batchnorm3d(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = BatchNorm3d(store, "bn", 2)
    layer.gamma.value[:] = rng.uniform(0.5, 1.5, 2)
    layer.beta.value[:] = rng.uniform(-0.5, 0.5, 2)
    x = rng.standard_normal((2, 2, 2, 2, 2))
    return _check_layer(layer, x, [layer.gamma, layer.beta], train=True, rng=rng)


def check_batchnorm3d_eval(seed=0):
    # inference mode normalizes with fixed running statistics
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = BatchNorm3d(store, "bn", 2)
    layer.gamma.value[:] = rng.uniform(0.5, 1.5, 2)
    layer.beta.value[:] = rng.uniform(-0.5, 0.5, 2)
    layer.running_mean = rng.uniform(-0.5, 0.5, 2)
    layer.running_var = rng.uniform(0.5, 2.0, 2)
    x = rng.standard_normal((2, 2, 2, 2, 2))
    return _check_layer(layer, x, [layer.gamma, layer.beta], train=False,
                        rng=rng)


def _tie_free(rng, shape, scale=0.1):
    # distinct values so max-pool argmax cannot flip inside the FD step
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * scale).reshape(shape)


def check_maxpool3d(seed=0):
    rng = np.random.default_rng(seed)
    layer = MaxPool3d((1, 2, 2))
    x = _tie_free(rng, (2, 2, 2, 4, 4))
    return _check_layer(layer, x, [], rng=rng)


def check_avgpool3d(seed=0):
    rng = np.random.default_rng(seed)
    layer = AvgPool3d((1, 2, 2))
    x = rng.standard_normal((2, 2, 2, 4, 4))
    return _check_layer(layer, x, [], rng=rng)


def check_lstm_step(seed=0):
    """The shipped BiLstm over a single step: one cell update per
    direction, with no gradient arriving from a later step."""
    return check_bilstm(seed, steps=1)


def check_bilstm(seed=0, steps=4):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = BiLstm(store, "bilstm", 3, 4, rng=rng)
    x = rng.standard_normal((2, steps, 3))
    return _check_layer(layer, x, [p for _, p in store.items()], rng=rng)


def check_attention(seed=0):
    rng = np.random.default_rng(seed)
    layer = SelfAttention()
    x = rng.standard_normal((1, 3, 4))
    return _check_layer(layer, x, [], rng=rng)


def check_dense(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    layer = Dense(store, "fc", 4, 5, rng=rng)
    x = rng.standard_normal((3, 4))
    return _check_layer(layer, x, [layer.w, layer.b], rng=rng)


def check_relu(seed=0):
    rng = np.random.default_rng(seed)
    layer = ReLU()
    x = rng.standard_normal((3, 4, 5))
    x[np.abs(x) < 1e-3] += 0.01  # keep preactivations away from the kink
    return _check_layer(layer, x, [], rng=rng)


def check_softmax_cross_entropy(seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((2, 5))
    labels = np.eye(5)[rng.integers(0, 5, size=2)]

    def loss():
        return softmax_cross_entropy(logits, labels)[0]

    _, grad = softmax_cross_entropy(logits, labels)
    return rel_error(grad, numerical_grad(loss, logits))


ALL_CHECKS = [
    ("conv3d", check_conv3d),
    ("conv3d_strided", check_conv3d_strided),
    ("pointwise_conv", check_pointwise_conv),
    ("expanded_conv3d", check_expanded_conv3d),
    ("batchnorm3d_train", check_batchnorm3d),
    ("batchnorm3d_eval", check_batchnorm3d_eval),
    ("maxpool3d", check_maxpool3d),
    ("avgpool3d", check_avgpool3d),
    ("relu", check_relu),
    ("lstm_step", check_lstm_step),
    ("bilstm_t4", check_bilstm),
    ("self_attention", check_attention),
    ("dense", check_dense),
    ("softmax_cross_entropy", check_softmax_cross_entropy),
]


def run_all(seed=0, threshold=1e-4):
    """Run every layer check; returns [(name, max_rel_err, passed), ...]."""
    results = []
    for name, fn in ALL_CHECKS:
        err = fn(seed)
        results.append((name, err, err < threshold))
    return results

"""3D convolution and pooling with exact hand-written backward passes.

Tensors are laid out [batch, channels, time, height, width]. Kernels are
[out_channels, in_channels, kT, kH, kW]. Every output extent follows
floor((in + 2 pad - k) / stride) + 1.

Convolution is one GEMM per sample against that sample's patch matrix,
copied from a strided window view of the padded input; holding one sample's
patches at a time keeps memory near input plus output. The input gradient
is the same correlation run on the stride-dilated output gradient with the
flipped, channel-swapped kernel. Pools are non-overlapping (stride must
equal the window) and combine the window's offset slabs elementwise.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .params import uniform_fanin


def _triple(v):
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(i) for i in v)
    if len(t) != 3:
        raise ShapeError("stride/padding/window must be scalar or length 3")
    return t


def _out_extent(n, k, s, p):
    o = (n + 2 * p - k) // s + 1
    if o < 1:
        raise ShapeError(f"kernel/window of {k} does not fit extent {n} "
                         f"with stride {s}, padding {p}")
    return o


def _pad5(x, pads):
    return np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))


def _patch_matrices(xp, ksize, stride):
    """Each sample's [C*kT*kH*kW, oT*oH*oW] patch matrix, in batch order.

    The matrices share one buffer, valid until the next one is yielded;
    copyto into it is several times faster than a reshape copy of the view.
    """
    st, sh, sw = stride
    cols = sliding_window_view(xp, ksize, axis=(2, 3, 4))[
        :, :, ::st, ::sh, ::sw].transpose(0, 1, 5, 6, 7, 2, 3, 4)
    buf = np.empty(cols.shape[1:])
    mat = buf.reshape(int(np.prod(cols.shape[1:5])), -1)
    for sample in cols:
        np.copyto(buf, sample)
        yield mat


def _correlate(xp, kernel, stride):
    """Unpadded, bias-free cross-correlation of xp with kernel."""
    ksize = kernel.shape[2:]
    out = np.empty(xp.shape[:1] + kernel.shape[:1] + tuple(
        (n - k) // s + 1 for n, k, s in zip(xp.shape[2:], ksize, stride)))
    kmat = kernel.reshape(kernel.shape[0], -1)
    for o, mat in zip(out, _patch_matrices(xp, ksize, stride)):
        np.matmul(kmat, mat, out=o.reshape(kmat.shape[0], -1))
    return out


def conv3d_forward(x, kernel, bias, stride=1, padding=0):
    """Linear 3D cross-correlation plus bias (activation applied elsewhere)."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 5 or kernel.ndim != 5:
        raise ShapeError("conv3d expects 5-D input and kernel")
    if x.shape[1] != kernel.shape[1] or bias.shape != (kernel.shape[0],):
        raise ShapeError("channel counts of input, kernel and bias disagree")
    stride, padding = _triple(stride), _triple(padding)
    for n, k, s, p in zip(x.shape[2:], kernel.shape[2:], stride, padding):
        _out_extent(n, k, s, p)
    out = _correlate(_pad5(x, padding), kernel, stride)
    out += bias.reshape(1, -1, 1, 1, 1)
    return out


def conv3d_backward(grad_out, x, kernel, stride=1, padding=0):
    """Exact gradients of conv3d_forward w.r.t. input, kernel and bias."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    stride, padding = _triple(stride), _triple(padding)
    ksize = kernel.shape[2:]
    gflat = grad_out.reshape(grad_out.shape[0], kernel.shape[0], -1)
    grad_k = np.zeros((kernel.shape[0], kernel[0].size))
    for g, mat in zip(gflat, _patch_matrices(_pad5(x, padding), ksize, stride)):
        grad_k += g @ mat.T

    # grad_out at stride steps after k-1 zeros, correlated at stride 1 with
    # the flipped kernel, is the padded input's gradient; the crop keeps the
    # window that lands on the unpadded input.
    dilated = np.zeros(grad_out.shape[:2] + tuple(
        n + 2 * p + k - 1 for n, p, k in zip(x.shape[2:], padding, ksize)))
    dilated[(Ellipsis,) + tuple(
        slice(k - 1, k - 1 + o * s, s)
        for k, o, s in zip(ksize, grad_out.shape[2:], stride))] = grad_out
    crop = tuple(slice(p, p + n + k - 1)
                 for p, n, k in zip(padding, x.shape[2:], ksize))
    flipped = kernel[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
    grad_x = _correlate(dilated[(Ellipsis,) + crop], flipped, (1, 1, 1))
    return grad_x, grad_k.reshape(kernel.shape), grad_out.sum(axis=(0, 2, 3, 4))


def _pool_window(window, stride):
    window = _triple(window)
    if stride is not None and _triple(stride) != window:
        raise ShapeError(f"pool stride {stride} must equal its window {window}")
    return window


def _slabs(x, window):
    """Views of x, one per window offset in (dt, dh, dw) order.

    A trailing remainder shorter than the window is dropped, as
    floor((n - w) / w) + 1 does.
    """
    outs = [_out_extent(n, w, w, 0) for n, w in zip(x.shape[2:], window)]
    blocks = x[(Ellipsis,) + tuple(slice(o * w) for o, w in zip(outs, window))]
    blocks = blocks.reshape(x.shape[:2] + tuple(
        d for o, w in zip(outs, window) for d in (o, w)))
    return [blocks[:, :, :, dt, :, dh, :, dw] for dt in range(window[0])
            for dh in range(window[1]) for dw in range(window[2])]


def maxpool3d(x, window, stride=None):
    """Per-window maximum; stride defaults to, and must equal, the window."""
    slabs = _slabs(np.asarray(x, dtype=np.float64), _pool_window(window, stride))
    out = slabs[0].copy()
    for slab in slabs[1:]:
        np.maximum(out, slab, out=out)
    return out


def maxpool3d_backward(grad_out, x, window, stride=None):
    """Route each window's gradient to its maximum (first offset on ties)."""
    window = _pool_window(window, stride)
    x = np.asarray(x, dtype=np.float64)
    best = maxpool3d(x, window)
    pending = np.ones(best.shape, dtype=bool)
    grad_x = np.zeros_like(x)
    for slab, grad_slab in zip(_slabs(x, window), _slabs(grad_x, window)):
        hit = pending & (slab == best)
        np.multiply(grad_out, hit, out=grad_slab)
        pending &= ~hit
    return grad_x


def avgpool3d(x, window, stride=None):
    """Per-window mean; stride defaults to, and must equal, the window."""
    slabs = _slabs(np.asarray(x, dtype=np.float64), _pool_window(window, stride))
    out = slabs[0].copy()
    for slab in slabs[1:]:
        out += slab
    out /= len(slabs)
    return out


def avgpool3d_backward(grad_out, x, window, stride=None):
    window = _pool_window(window, stride)
    grad_x = np.zeros(np.shape(x))
    share = grad_out / (window[0] * window[1] * window[2])
    for grad_slab in _slabs(grad_x, window):
        grad_slab[...] = share
    return grad_x


class Conv3d:
    """Convolution layer owning its kernel and bias parameters."""

    def __init__(self, store, name, c_in, c_out, kernel, stride=1, padding=0,
                 rng=None):
        kernel = _triple(kernel) if np.isscalar(kernel) else tuple(kernel)
        fan_in = c_in * int(np.prod(kernel))
        rng = rng if rng is not None else np.random.default_rng(0)
        self.w = store.add(f"{name}.w",
                           uniform_fanin(rng, (c_out, c_in) + kernel, fan_in))
        self.b = store.add(f"{name}.b", np.zeros(c_out))
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        self._x = None

    def forward(self, x, train=False):
        self._x = x
        return conv3d_forward(x, self.w.value, self.b.value,
                              self.stride, self.padding)

    def backward(self, grad_out):
        grad_x, grad_k, grad_b = conv3d_backward(
            grad_out, self._x, self.w.value, self.stride, self.padding)
        self.w.grad += grad_k
        self.b.grad += grad_b
        return grad_x


class _Pool3d:
    def __init__(self, window, stride=None):
        self.window = _pool_window(window, stride)
        self._x = None

    def forward(self, x, train=False):
        self._x = x
        return self._pool(x, self.window)

    def backward(self, grad_out):
        return self._pool_backward(grad_out, self._x, self.window)


class MaxPool3d(_Pool3d):
    _pool = staticmethod(maxpool3d)
    _pool_backward = staticmethod(maxpool3d_backward)


class AvgPool3d(_Pool3d):
    _pool = staticmethod(avgpool3d)
    _pool_backward = staticmethod(avgpool3d_backward)

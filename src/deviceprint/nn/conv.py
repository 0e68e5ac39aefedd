"""3D convolution and pooling with exact hand-written backward passes.

Tensors are laid out [batch, channels, time, height, width]. Kernels are
[out_channels, in_channels, kT, kH, kW]. Every output extent follows
floor((in + 2 pad - k) / stride) + 1.

Convolution is one GEMM per sample against that sample's patch matrix,
copied from a strided window view of the padded input into a buffer that
holds one sample's patches at a time, which keeps memory near input plus
output; the kernel gradient builds the patches again the same way. The
input gradient is the same correlation run on the stride-dilated output
gradient with the flipped, channel-swapped kernel.

A 1->C pointwise expansion followed by a conv, with nothing nonlinear
between them, is one linear map of the 1-channel input. ExpandedConv3d
runs the pair as one correlation of that input with the expansion folded
into the kernel, plus a border map that carries the expansion's bias
where the padding zeros are not biased. Its patch matrices have C times
fewer rows, no C-channel activation exists in either direction, and as
the network's first layer it computes parameter gradients only. The fold
would be wrong with an activation or normalization between the two;
PointwiseExpansion then holds the expansion's parameters and passes its
argument through. Conv3d and conv3d_forward/conv3d_backward are the
oracle the fold is tested against.

Pools are non-overlapping (each steps by its window) and combine the
window's offset slabs elementwise. The max-pool layer keeps its output and
routes the gradient against those maxima instead of pooling again.

Layers keep backward state (the conv's input, the pools' input and
output) only from a train-mode forward; with train=False nothing
activation-sized outlives the call, and a backward raises DependencyError.

Every buffer takes the dtype of the arrays it is made from, and the
functional forms cast their input to the kernel's: a float32 layer
computes in float32 and a float64 oracle in float64, through the same
code.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .params import forward_state, uniform_fanin


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
    """x zero-padded on its last three axes (x itself when pads are 0);
    slice assignment into zeros is about twice as fast as np.pad at the
    model's G=8 shapes."""
    if not any(pads):
        return x
    xp = np.zeros(x.shape[:2] + tuple(n + 2 * p
                                      for n, p in zip(x.shape[2:], pads)),
                  dtype=x.dtype)
    xp[(Ellipsis,) + tuple(slice(p, p + n)
                           for n, p in zip(x.shape[2:], pads))] = x
    return xp


def _patch_matrices(xp, ksize, stride):
    """Each sample's [C*kT*kH*kW, oT*oH*oW] patch matrix, in batch order.

    The matrices share one buffer, valid until the next one is yielded;
    copyto into it is several times faster than a reshape copy of the view.
    """
    st, sh, sw = stride
    cols = sliding_window_view(xp, ksize, axis=(2, 3, 4))[
        :, :, ::st, ::sh, ::sw].transpose(0, 1, 5, 6, 7, 2, 3, 4)
    buf = np.empty(cols.shape[1:], dtype=xp.dtype)
    mat = buf.reshape(int(np.prod(cols.shape[1:5])), -1)
    for sample in cols:
        np.copyto(buf, sample)
        yield mat


def _correlate(xp, kernel, stride):
    """Unpadded, bias-free cross-correlation of xp with kernel."""
    ksize = kernel.shape[2:]
    out = np.empty(xp.shape[:1] + kernel.shape[:1] + tuple(
        (n - k) // s + 1 for n, k, s in zip(xp.shape[2:], ksize, stride)),
        dtype=xp.dtype)
    kmat = kernel.reshape(kernel.shape[0], -1)
    oflat = out.reshape(len(out), len(kmat), -1)
    for o, mat in zip(oflat, _patch_matrices(xp, ksize, stride)):
        np.matmul(kmat, mat, out=o)
    return out


def conv3d_forward(x, kernel, bias, stride=1, padding=0):
    """Linear 3D cross-correlation plus bias (activation applied elsewhere)."""
    kernel = np.asarray(kernel)
    x = np.asarray(x, dtype=kernel.dtype)
    bias = np.asarray(bias, dtype=kernel.dtype)
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


def _kernel_grad(grad_out, xp, kernel_shape, stride):
    """Sum over samples of grad_out times the patch matrix transposed."""
    gflat = grad_out.reshape(grad_out.shape[0], kernel_shape[0], -1)
    grad_k = np.zeros((kernel_shape[0], math.prod(kernel_shape[1:])),
                      dtype=grad_out.dtype)
    for g, mat in zip(gflat, _patch_matrices(xp, kernel_shape[2:], stride)):
        grad_k += g @ mat.T
    return grad_k.reshape(kernel_shape)


def _input_grad(grad_out, x_shape, kernel, stride, padding):
    # grad_out at stride steps after k-1 zeros, correlated at stride 1 with
    # the flipped kernel, is the padded input's gradient; the crop keeps the
    # window that lands on the unpadded input.
    ksize = kernel.shape[2:]
    dilated = np.zeros(grad_out.shape[:2] + tuple(
        n + 2 * p + k - 1 for n, p, k in zip(x_shape[2:], padding, ksize)),
        dtype=grad_out.dtype)
    dilated[(Ellipsis,) + tuple(
        slice(k - 1, k - 1 + o * s, s)
        for k, o, s in zip(ksize, grad_out.shape[2:], stride))] = grad_out
    crop = tuple(slice(p, p + n + k - 1)
                 for p, n, k in zip(padding, x_shape[2:], ksize))
    flipped = kernel[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
    return _correlate(dilated[(Ellipsis,) + crop], flipped, (1, 1, 1))


def conv3d_backward(grad_out, x, kernel, stride=1, padding=0):
    """Exact gradients of conv3d_forward w.r.t. input, kernel and bias.

    The kernel gradient comes first, so the padded input is freed before
    the input gradient's dilated buffer is built.
    """
    kernel = np.asarray(kernel)
    x = np.asarray(x, dtype=kernel.dtype)
    grad_out = np.asarray(grad_out, dtype=kernel.dtype)
    stride, padding = _triple(stride), _triple(padding)
    grad_k = _kernel_grad(grad_out, _pad5(x, padding), kernel.shape, stride)
    return (_input_grad(grad_out, x.shape, kernel, stride, padding), grad_k,
            grad_out.sum(axis=(0, 2, 3, 4)))


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


def maxpool3d(x, window):
    """Per-window maximum over non-overlapping windows."""
    slabs = _slabs(np.asarray(x), _triple(window))
    out = slabs[0].copy()
    for slab in slabs[1:]:
        np.maximum(out, slab, out=out)
    return out


def maxpool3d_backward(grad_out, x, window):
    """Route each window's gradient to its maximum (first offset on ties)."""
    window = _triple(window)
    x = np.asarray(x)
    return _route_to_max(grad_out, x, maxpool3d(x, window), window)


def _route_to_max(grad_out, x, best, window):
    """maxpool3d_backward given the pooled maxima `best` of x; a window
    whose maximum is NaN matches no slab and routes nothing."""
    pending = np.ones(best.shape, dtype=bool)
    hit = np.empty(best.shape, dtype=bool)
    grad_x = np.zeros(x.shape, dtype=x.dtype)
    for slab, grad_slab in zip(_slabs(x, window), _slabs(grad_x, window)):
        np.equal(slab, best, out=hit)
        hit &= pending
        np.multiply(grad_out, hit, out=grad_slab)
        pending ^= hit
    return grad_x


def avgpool3d(x, window):
    """Per-window mean over non-overlapping windows."""
    slabs = _slabs(np.asarray(x), _triple(window))
    out = slabs[0].copy()
    for slab in slabs[1:]:
        out += slab
    out /= len(slabs)
    return out


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
        self._x = x if train else None
        return conv3d_forward(x, self.w.value, self.b.value,
                              self.stride, self.padding)

    def backward(self, grad_out):
        """Accumulate the kernel and bias gradients; return the input's."""
        grad_x, grad_w, grad_b = conv3d_backward(
            grad_out, forward_state(self._x, self), self.w.value,
            self.stride, self.padding)
        self.w.grad += grad_w
        self.b.grad += grad_b
        return grad_x


class PointwiseExpansion:
    """The kernel [C, 1, 1, 1, 1] and bias [C] of a 1->C pointwise conv
    that ExpandedConv3d applies as part of its own correlation.

    forward and backward pass their argument through unchanged, so a
    layer list holding this slot still composes to the network;
    C3dBiLstm skips the slot in both directions.
    """

    def __init__(self, store, name, c_out, rng):
        self.w = store.add(f"{name}.w",
                           uniform_fanin(rng, (c_out, 1, 1, 1, 1), 1))
        self.b = store.add(f"{name}.b", np.zeros(c_out))

    def forward(self, x, train=False):
        return x

    def backward(self, grad_out):
        return grad_out


def _padded_ones(spatial, padding, dtype):
    """[1, 1, *spatial] ones, zero-padded: where a padded input is real."""
    return _pad5(np.ones((1, 1) + tuple(spatial), dtype=dtype), padding)


class ExpandedConv3d:
    """A stride-1 zero-padded conv of a PointwiseExpansion's output, run
    on the expansion's 1-channel input.

    With nothing nonlinear between them, the pair is one linear map of the
    raw input x: padding the expansion's output pads pw.w[c] * x with zeros
    and adds pw.b[c] only where the padded input is real. So the output is
    x's padded correlation with Kx[o] = sum_c pw.w[c] * w[o, c], plus the
    padded ones-indicator's correlation with Kb[o] = sum_c pw.b[c] * w[o, c]
    (one map shared by the batch), plus b. The patch matrices have kT*kH*kW
    rows instead of C times that, and no C-channel activation is made.

    backward takes dKx from x's patches and dKb from the batch-summed
    gradient's, and chains both into the four parameter gradients. It
    computes no input gradient and returns None: the layer is first in the
    network, and nothing reads the network input's gradient. A train-mode
    forward keeps the padded input only; an inference forward keeps nothing.
    """

    def __init__(self, store, name, expansion, c_out, kernel, padding, rng):
        self.expansion = expansion
        self.kernel = tuple(kernel)
        c_in = expansion.b.value.size
        fan_in = c_in * int(np.prod(self.kernel))
        self.w = store.add(f"{name}.w", uniform_fanin(
            rng, (c_out, c_in) + self.kernel, fan_in))
        self.b = store.add(f"{name}.b", np.zeros(c_out))
        self.padding = _triple(padding)
        self._xp = None

    def _expansion_rows(self):
        """[2, C]: the expansion's kernel and bias, the rows Kx and Kb fold."""
        return np.stack([self.expansion.w.value.reshape(-1),
                         self.expansion.b.value])

    def _w_rows(self):
        """w as [C_out, C, kT*kH*kW]."""
        return self.w.value.reshape(self.w.value.shape[:2] + (-1,))

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=self.w.value.dtype)
        if x.ndim != 5 or x.shape[1] != 1:
            raise ShapeError(f"expected a 1-channel 5-D input, got {x.shape}")
        for n, k, p in zip(x.shape[2:], self.kernel, self.padding):
            _out_extent(n, k, 1, p)
        # [C_out, 2, K]: Kx and Kb, each a 1-channel kernel
        folded = (self._expansion_rows() @ self._w_rows()).reshape(
            (len(self.b.value), 2) + self.kernel)
        xp = _pad5(x, self.padding)
        out = _correlate(xp, folded[:, :1], (1, 1, 1))
        border = _correlate(_padded_ones(x.shape[2:], self.padding, x.dtype),
                            folded[:, 1:], (1, 1, 1))
        border += self.b.value.reshape(1, -1, 1, 1, 1)
        out += border
        self._xp = xp if train else None
        return out

    def backward(self, grad_out):
        """Accumulate the expansion's and this conv's parameter gradients."""
        grad_out = np.asarray(grad_out, dtype=self.w.value.dtype)
        xp = forward_state(self._xp, self)
        spatial = tuple(n - 2 * p for n, p in zip(xp.shape[2:], self.padding))
        shape = (len(self.b.value), 1) + self.kernel
        grad_sum = grad_out.sum(axis=0, keepdims=True)
        # [C_out, 2, K]: dKx and dKb
        grad_folded = np.concatenate([
            _kernel_grad(grad_out, xp, shape, (1, 1, 1)),
            _kernel_grad(grad_sum, _padded_ones(spatial, self.padding,
                                                grad_sum.dtype),
                         shape, (1, 1, 1))], axis=1).reshape(shape[0], 2, -1)
        rows = self._expansion_rows()
        self.w.grad += (rows.T @ grad_folded).reshape(self.w.value.shape)
        grad_rows = np.tensordot(grad_folded, self._w_rows(), ((0, 2), (0, 2)))
        self.expansion.w.grad += grad_rows[0].reshape(
            self.expansion.w.value.shape)
        self.expansion.b.grad += grad_rows[1]
        self.b.grad += grad_sum.sum(axis=(0, 2, 3, 4))


class _Pool3d:
    def __init__(self, window):
        self.window = _triple(window)
        self._x = None
        self._out = None

    def forward(self, x, train=False):
        out = self._pool(x, self.window)
        self._x, self._out = (x, out) if train else (None, None)
        return out


class MaxPool3d(_Pool3d):
    """Max pool whose backward routes to the maxima its forward kept."""

    _pool = staticmethod(maxpool3d)

    def backward(self, grad_out):
        return _route_to_max(grad_out, forward_state(self._x, self),
                             self._out, self.window)


class AvgPool3d(_Pool3d):
    _pool = staticmethod(avgpool3d)

    def backward(self, grad_out):
        x = forward_state(self._x, self)
        grad_x = np.zeros(x.shape, dtype=x.dtype)
        share = grad_out / math.prod(self.window)
        for grad_slab in _slabs(grad_x, self.window):
            grad_slab[...] = share
        return grad_x

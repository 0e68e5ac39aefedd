"""Named trainable parameters with gradients, checkpoint I/O, and the
check every layer's backward makes on the state its forward kept.

A store holds one dtype: every value, gradient and packed buffer is of
it, and the layers built on the store compute in it. The network trains
in float32; the gradient checks build float64 stores and run the same
layer code. Checkpoints hold float64 on disk whatever the store's dtype,
which is exact for float32 values.
"""

import numpy as np

from ..atomic import Record, pack_float64, pack_int32, write_atomic
from ..errors import ConfigError, DependencyError

CHECKPOINT_MAGIC = b"STRL1"


class Parameter:
    """A value tensor, cast to `dtype`, paired with a same-shape gradient
    accumulator."""

    def __init__(self, value, dtype):
        self.value = np.asarray(value, dtype=dtype)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class ParamStore:
    """Insertion-ordered mapping of unique names to Parameters.

    `pack` copies every parameter into one flat value buffer and one flat
    gradient buffer, in the order they were added, and re-points each at
    its slice of them; after that a whole-store update (zero the
    gradients, an Adam step) is one array operation, and the store takes
    no more parameters. Names, shapes and the iteration order, which fixes
    the checkpoint's, do not depend on the packing.

    `dtype` is that of every value, gradient and flat buffer; an added
    value is cast to it once.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params = {}
        self.flat_value = None
        self.flat_grad = None

    def add(self, name, value):
        if self.flat_value is not None:
            raise ConfigError("parameter store is packed: it takes no more "
                              "parameters")
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = self._params[name] = Parameter(value, self.dtype)
        return p

    def items(self):
        return self._params.items()

    def views(self, flat):
        """name -> the reshaped slice of `flat`, a packed-size buffer, that
        sits where that parameter's value sits in `flat_value`."""
        views, pos = {}, 0
        for name, p in self._params.items():
            views[name] = flat[pos:pos + p.value.size].reshape(p.value.shape)
            pos += p.value.size
        return views

    def pack(self):
        """Move every parameter into the flat buffers; a no-op once done."""
        if self.flat_value is not None:
            return
        size = sum(p.value.size for p in self._params.values())
        flat_value = np.empty(size, dtype=self.dtype)
        flat_grad = np.empty(size, dtype=self.dtype)
        values, grads = self.views(flat_value), self.views(flat_grad)
        for name, p in self._params.items():
            values[name][...] = p.value
            grads[name][...] = p.grad
            p.value, p.grad = values[name], grads[name]
        self.flat_value, self.flat_grad = flat_value, flat_grad

    def zero_grads(self):
        """Zero every gradient in one fill; packs the store first."""
        self.pack()
        self.flat_grad.fill(0.0)


def forward_state(state, layer):
    """The backward state layer's last forward kept. A forward with
    train=False keeps none, since no backward follows inference."""
    if state is None:
        raise DependencyError(
            f"{type(layer).__name__}.backward needs a train-mode forward "
            "first: an inference forward (train=False) keeps no backward "
            "state")
    return state


def uniform_fanin(rng, shape, fan_in):
    """Scaled-uniform init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


def save_checkpoint(path, arrays):
    """Write named arrays: magic, count, then per entry the UTF-8 name,
    rank, 32-bit extents and row-major float64 values (exact for a
    float32 array)."""
    chunks = [CHECKPOINT_MAGIC, pack_int32(len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        chunks += [pack_int32(len(encoded)), encoded,
                   pack_int32(arr.ndim, *arr.shape), pack_float64(arr)]
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path):
    """name -> float64 array of a checkpoint `save_checkpoint` wrote."""
    record = Record(path, CHECKPOINT_MAGIC, "checkpoint")
    arrays = {}
    (count,) = record.ints(1)
    for _ in range(count):
        (name_len,) = record.ints(1)
        name = record.text(name_len)
        (rank,) = record.ints(1)
        arrays[name] = record.array(record.ints(rank))
    record.end()
    return arrays

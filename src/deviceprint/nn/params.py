"""Named trainable parameters with gradients, checkpoint I/O, and the
check every layer's backward makes on the state its forward kept."""

import numpy as np

from ..atomic import Record, pack_float64, pack_int32, write_atomic
from ..errors import ConfigError, DependencyError

CHECKPOINT_MAGIC = b"STRL1"


class Parameter:
    """A value tensor paired with a same-shape gradient accumulator."""

    def __init__(self, value, grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value) if grad is None else grad

    def zero_grad(self):
        self.grad.fill(0.0)


class ParamStore:
    """Insertion-ordered mapping of unique names to Parameters.

    A parameter owns its storage, or is a view of an unnamed block (see
    `block`), so that a layer can read several parameters as one array.
    `pack` copies every owner into one flat value buffer and one flat
    gradient buffer, in the order they were added, and re-points every
    parameter at its place in them; after that a whole-store update (zero
    the gradients, an Adam step) is one array operation, and the store
    takes no more parameters. Names, shapes and the iteration order, which
    fixes the checkpoint's, do not depend on the packing.
    """

    def __init__(self):
        self._params = {}
        self._owners = []   # Parameters that own storage, in buffer order
        self._places = {}   # name -> (owner position, index into the owner)
        self.flat_value = None
        self.flat_grad = None

    def _check_open(self):
        if self.flat_value is not None:
            raise ConfigError("parameter store is packed: it takes no more "
                              "parameters")

    def block(self, shape):
        """An unnamed zero Parameter for `add(..., view=(block, index))`."""
        self._check_open()
        owner = Parameter(np.zeros(shape))
        self._owners.append(owner)
        return owner

    def add(self, name, value, view=None):
        """Register `value` under `name`. With view=(block, index) the
        parameter is `block` at `index` and `value` is copied there."""
        self._check_open()
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if view is None:
            p = Parameter(value)
            self._owners.append(p)
            place = (len(self._owners) - 1, ...)
        else:
            block, index = view
            block.value[index] = value
            p = Parameter(block.value[index], block.grad[index])
            place = (self._owners.index(block), index)
        self._params[name] = p
        self._places[name] = place
        return p

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def _split(self, flat):
        """One reshaped slice of `flat` per owner, in buffer order."""
        parts, pos = [], 0
        for owner in self._owners:
            parts.append(flat[pos:pos + owner.value.size]
                         .reshape(owner.value.shape))
            pos += owner.value.size
        return parts

    def views(self, flat):
        """name -> the view of `flat`, a packed-size buffer, that sits where
        that parameter's value sits in `flat_value`."""
        parts = self._split(flat)
        return {name: parts[k][index]
                for name, (k, index) in self._places.items()}

    def pack(self):
        """Move every parameter into the flat buffers; a no-op once done."""
        if self.flat_value is not None:
            return
        size = sum(owner.value.size for owner in self._owners)
        flat_value, flat_grad = np.empty(size), np.empty(size)
        for owner, value, grad in zip(self._owners, self._split(flat_value),
                                      self._split(flat_grad)):
            value[...] = owner.value
            grad[...] = owner.grad
            owner.value, owner.grad = value, grad
        values, grads = self.views(flat_value), self.views(flat_grad)
        for name, p in self._params.items():
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
    """Write named float64 arrays: magic, count, then per entry the
    UTF-8 name, rank, 32-bit extents and row-major values."""
    chunks = [CHECKPOINT_MAGIC, pack_int32(len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        chunks += [pack_int32(len(encoded)), encoded,
                   pack_int32(arr.ndim, *arr.shape), pack_float64(arr)]
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path):
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

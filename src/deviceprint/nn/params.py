"""Named trainable parameters with gradients, checkpoint I/O, and the
check every layer's backward makes on the state its forward kept."""

import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DependencyError, FormatError

CHECKPOINT_MAGIC = b"STRL1"


class Parameter:
    """A value tensor paired with a same-shape gradient accumulator."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class ParamStore:
    """Insertion-ordered mapping of unique names to Parameters."""

    def __init__(self):
        self._params = {}

    def add(self, name, value):
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(value)
        self._params[name] = p
        return p

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def zero_grads(self):
        for p in self._params.values():
            p.zero_grad()

    def n_scalars(self):
        return sum(p.value.size for p in self._params.values())


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
    chunks = [CHECKPOINT_MAGIC, struct.pack("<i", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<i", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<i", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}i", *arr.shape))
        chunks.append(np.ascontiguousarray(arr).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path):
    raw = Path(path).read_bytes()
    if raw[:5] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    arrays = {}
    try:
        (count,) = struct.unpack_from("<i", raw, 5)
        pos = 9
        for _ in range(count):
            (name_len,) = struct.unpack_from("<i", raw, pos)
            pos += 4
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<i", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}i", raw, pos)
            pos += 4 * rank
            size = int(np.prod(shape)) if rank else 1
            arrays[name] = np.frombuffer(
                raw, "<f8", count=size, offset=pos).reshape(shape).copy()
            pos += 8 * size
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated checkpoint") from exc
    return arrays

"""Artifact writes that an interrupted process cannot leave half done, and
the one binary layout every cached array artifact shares.

That layout is a 5-byte magic, then fields in the order a format declares
them: little-endian int32 integers (counts, extents) and row-major
little-endian float64 arrays, with UTF-8 text where a format names its
arrays. `pack_int32` and `pack_float64` write the fields; a `Record`
reads them back in the same order.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError


def write_atomic(path, data):
    """Write bytes (or text, as UTF-8) to path through `<path>.tmp` in the
    same directory and `os.replace`, so path holds either its old content
    or all of the new. The directory is made if missing; the temp file is
    removed if the write fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def pack_int32(*values):
    """The values as consecutive little-endian int32 fields."""
    return struct.pack(f"<{len(values)}i", *values)


def pack_float64(arr):
    """The array's values as row-major little-endian float64."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


class Record:
    """A cursor over the fields of one artifact file.

    The file must start with `magic`. Each read takes the next field and
    is checked against the end of the file; `end` checks that nothing is
    left, and `build` also checks the values. Every failure is a
    FormatError naming the path and `kind`, the format's name in
    messages.
    """

    def __init__(self, path, magic, kind):
        self.path, self.kind = path, kind
        self._raw = memoryview(Path(path).read_bytes())
        if self._raw[:len(magic)] != magic:
            self._fail(f"bad {kind} magic")
        self._pos = len(magic)

    def _fail(self, what):
        raise FormatError(f"{self.path}: {what}")

    def _take(self, n_bytes):
        end = self._pos + n_bytes
        if end > len(self._raw):
            self._fail(f"truncated {self.kind}")
        chunk = self._raw[self._pos:end]
        self._pos = end
        return chunk

    def ints(self, count, least=0):
        """The next count int32 fields; one below `least` (1 for an
        extent that must be positive) is refused."""
        values = struct.unpack(f"<{count}i", self._take(4 * count))
        if values and min(values) < least:
            self._fail(f"{self.kind} field {min(values)} is below {least}")
        return values

    def text(self, n_bytes):
        """The next n_bytes as UTF-8 text."""
        try:
            return str(self._take(n_bytes), "utf-8")
        except UnicodeDecodeError:
            self._fail(f"{self.kind} text is not UTF-8")

    def array(self, shape):
        """The next float64 array of the given shape, copied once out of
        the file's bytes."""
        size = math.prod(shape)
        return np.frombuffer(self._take(8 * size), "<f8").reshape(shape).copy()

    def end(self):
        left = len(self._raw) - self._pos
        if left:
            self._fail(f"{left} bytes after the end of the {self.kind}")

    def build(self, cls, *args, **kwargs):
        """`end`, then cls(*args, **kwargs): the value the fields make. A
        ShapeError from the class's own check of those values (an entry
        out of range, say) is refused like a layout fault."""
        self.end()
        try:
            return cls(*args, **kwargs)
        except ShapeError as exc:
            self._fail(str(exc))

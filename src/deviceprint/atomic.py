"""Artifact writes that an interrupted process cannot leave half done."""

import os
from pathlib import Path


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

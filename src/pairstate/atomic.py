"""All-or-nothing file writes: a temp file beside the target, then a rename.

A reader of `path` sees the old file or the whole new one, never a part:
the bytes go to a temp file in the same directory, which `os.replace`
renames over `path` once they are all written. If the write raises, the
temp file is removed and `path` is left as it was. This guards against a
crash or kill of the writing process; it does not fsync, so it does not
guard against the machine losing power.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """`open(path, mode, **open_kwargs)`, but the file appears at `path`
    only when the block exits without an exception."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise

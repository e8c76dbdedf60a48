"""All-or-nothing output files.

Every file the package writes goes through :func:`atomic_open`: the content
is written to a temporary file in the destination's directory and moved onto
the destination with ``os.replace`` only once it is complete. A failed or
interrupted write therefore leaves either the previous file or none, never a
truncated one, and never touches other files in the directory.
"""

from __future__ import annotations

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Like ``open(path, mode)`` for writing, but ``path`` appears only on success."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    # exclusive create: the name is fresh, and the file gets the umask's mode
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise

"""All-or-nothing output files.

Every file the package writes goes through :func:`atomic_open`: the content
is written to a temporary file in the destination's directory and moved onto
the destination with ``os.replace`` only once it is complete. A failed or
interrupted write therefore leaves either the previous file or none, never a
truncated one, and never touches other files in the directory. An OSError
from opening, writing or replacing the file, or from :func:`make_dirs`, is an
IoFailure.
"""

from __future__ import annotations

import contextlib
import os
import uuid

from .errors import IoFailure


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
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise IoFailure(f"cannot write {path}: {e}") from e
        raise


def make_dirs(path):
    """``os.makedirs(path, exist_ok=True)``, raising IoFailure for a directory it cannot make."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot make directory {path}: {e}") from e

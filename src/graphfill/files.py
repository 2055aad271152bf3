"""Atomic file replacement for run artifacts and checkpoints."""
import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for writing text; it appears only once the block completes.

    The text goes to ``path + ".tmp"`` in the same directory, which
    ``os.replace`` then moves over ``path``. If the block or the write
    fails, the temporary file is removed and an earlier ``path`` is left
    as it was, so a crash never leaves a truncated file behind.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise

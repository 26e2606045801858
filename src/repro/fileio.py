"""Atomic file replacement, shared by every on-disk store.

The result cache, the compiled-program cache, the fuzz corpus and journal
compaction all publish a file whole or not at all.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path


def atomic_write_text(path: Path, text: str, *, fsync: bool = False) -> Path:
    """Write ``text`` to ``path`` through a temp file and ``os.replace``.

    The temp name is unique per writer (pid *and* thread): farm dispatcher
    threads and worker processes may publish the same entry concurrently,
    and a shared temp path would interleave their writes into a torn file
    that the rename then publishes.  With unique temps the rename is the
    only shared step, and it is atomic — last writer wins.  ``fsync``
    makes the contents durable before the rename, so a crash leaves the
    old file or the new one, never an empty one.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path

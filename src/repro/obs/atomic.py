"""Crash-safe replacement of exported telemetry files.

Traces, collapsed profiles and status snapshots are rewritten whole.
Writing them in place would truncate the previous file first, so a crash
or a serialization error mid-dump would leave neither the old nor the new
content.  :func:`write_atomic` writes a sibling temporary file and
renames it over the target only once the dump is complete.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, TextIO

__all__ = ["write_atomic"]


def write_atomic(path: str, dump: Callable[[TextIO], object]) -> None:
    """Replace *path* with what *dump* writes to the open file it is
    given; if *dump* raises, *path* keeps its previous content."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise

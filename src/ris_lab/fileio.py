"""Atomic file writes for every artifact the package produces.

Each file is first written in full to a temporary file next to its target,
then moved over the target with os.replace, so an exception or a crash
mid-write leaves the earlier file whole. A binary artifact and its JSON
sidecar are written together, sidecar first, so a binary never appears
without its sidecar.
"""

from __future__ import annotations

import contextlib
import json
import os


def json_text(doc) -> str:
    """The JSON encoding every writer uses: indented, sorted, newline ended."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_files(*items) -> None:
    """Write (path, data) pairs; data is ASCII text, a bytes-like object,
    or a list of bytes-like chunks written one after another.

    All temporary files are written before the first os.replace, and the
    targets are replaced in the order given. If anything fails, no
    temporary file is left behind.
    """
    temps = []
    try:
        for path, data in items:
            temps.append(f"{os.fspath(path)}.{os.getpid()}.tmp")
            if isinstance(data, str):
                data = data.encode("ascii")
            with open(temps[-1], "wb") as fh:
                for chunk in data if isinstance(data, list) else [data]:
                    fh.write(chunk)
        for (path, _), tmp in zip(items, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise

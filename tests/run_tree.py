"""Read a run directory back: the one tree walk that the tests and
tools/byte_gates.py compare runs with.

`tree_files(root)` yields (path, bytes) for every file under root, with
the path relative to root and `/`-separated. It reads one file at a
time, so a caller that only hashes each file never holds a whole
4836-frame run in memory.
"""

from __future__ import annotations

import os


def tree_files(root: str):
    """Yield (relative `/` path, bytes) for each file under root."""
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            yield os.path.relpath(path, root).replace(os.sep, "/"), data

"""Small numeric and file helpers shared by several modules."""

import contextlib
import math
import os
import shutil
import threading

from .errors import DataIOError


def round_half_away(x: float) -> int:
    """Round x >= 0 to the nearest integer, halves up.

    Python's built-in round() rounds halves to even, which is the wrong
    convention for subset sizing; the callers pass a count times a
    fraction, which is never negative.
    """
    return int(math.floor(x + 0.5))


def make_dirs(path: str) -> None:
    """os.makedirs(exist_ok=True), raising DataIOError on failure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create directory {path}: {exc}") from exc


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write UTF-8 text with LF line endings, whatever the platform."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def write_text_atomic(path: str, text: str) -> None:
    """write_text to a temporary beside path, renamed over it: a run cut
    short leaves the old file or the new, and a failed call no temporary."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write_text(tmp, text)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


@contextlib.contextmanager
def staged_dir(path: str):
    """write_text_atomic for a directory: yield a new sibling to fill, which
    is renamed onto path (absent or empty) when the block ends, removed if
    it raises, and left as `<path>.<pid>.partial` by a killed process."""
    tmp = f"{path}.{os.getpid()}.partial"
    make_dirs(os.path.dirname(tmp))
    try:
        os.mkdir(tmp)  # a leftover of this name is an error, never reused
    except OSError as exc:
        raise DataIOError(f"cannot create directory {tmp}: {exc}") from exc
    try:
        yield tmp
        try:
            os.rename(tmp, path)
        except OSError as exc:
            raise DataIOError(f"cannot rename {tmp} to {path}: {exc}") from exc
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def fork_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], in order; with workers > 1, capped at the
    CPUs this process may run on, each of that many forked processes maps
    one contiguous share (fn, items and results must pickle). fork skips
    the package import spawn repeats per worker, but copies only the
    calling thread, and another thread could hold a lock the workers
    need; the executor forks all its workers before it starts its
    manager thread. So without fork, or in a caller with more than one
    thread, items are mapped here. A worker that dies raises DataIOError."""
    workers = min(workers, len(items), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    import multiprocessing  # here, so importing the package stays light
    if (workers < 2 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(fn, items,
                                 chunksize=math.ceil(len(items) / workers)))
    except BrokenProcessPool:
        raise DataIOError("a worker process died before it finished") from None

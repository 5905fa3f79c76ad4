"""Run a block of code on one OpenBLAS thread.

At desk scale only a few GEMMs of a training step cross the size at which
OpenBLAS starts threads.  The extra threads spin without saving wall time,
and a threaded GEMM may sum in another order, so a run's bits would depend
on the thread count the environment gives.  `one_thread` pins the OpenBLAS
that numpy loaded to one thread and restores the previous count on exit.
Where no OpenBLAS is found it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

# (get, set) thread-count symbols: numpy wheels' scipy-openblas, system builds
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


def _openblas_paths() -> list[str]:
    """Mapped libraries of this process whose file name contains 'openblas' (Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as f:
            # address, perms, offset, device, inode, then the path if one is mapped
            rows = [line.split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


@functools.cache
def thread_functions():
    """(get, set) of the loaded OpenBLAS's thread count, or None; looked up once."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def pinned_threads() -> int | None:
    """The thread count a `one_thread` block runs on: 1, or None without OpenBLAS."""
    return None if thread_functions() is None else 1


@contextmanager
def one_thread():
    """Pin OpenBLAS to one thread for the block (or the decorated call)."""
    funcs = thread_functions()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)

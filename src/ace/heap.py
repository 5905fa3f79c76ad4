"""Keep freed heap pages in the process between training steps, probe chunks
and generated phantoms.

A desk step or a probe chunk allocates MBs of array temporaries and frees
them.  By glibc's dynamic rule the freed top of the heap goes back to the
OS each time, and the next step faults it in again, zero-filled (about
1,250 minor faults per desk step when steps ran in float64).  A 256 x 256
float64 phantom temporary (512 KiB) is above glibc's default mmap
threshold, so each full-image pass of `synthgen.generate` mapped a fresh
one: about 1,200 minor faults per phantom, none once the pages are held.
`hold_freed_pages` fixes the mmap threshold at glibc's 64-bit ceiling and
the trim threshold above it, so blocks below 32 MiB come from the heap and
up to 64 MiB of freed heap stays with the process.  Unlike
`blas.one_thread` nothing is restored: glibc has no getter for these
thresholds, so the setting lasts for the life of the process.  Without
glibc's `mallopt` it does nothing.
"""

from __future__ import annotations

import ctypes
import functools

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def hold_freed_pages() -> bool:
    """Set glibc's mmap and trim thresholds once per process; True if both took."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest on 64-bit
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return mmap_set == 1 and trim_set == 1

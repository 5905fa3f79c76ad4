"""Keep freed heap pages in the process between training steps, probe chunks
and generated phantoms, in one malloc arena.

A desk step or a probe chunk allocates MBs of array temporaries and frees
them.  By glibc's dynamic rule the freed top of the heap goes back to the
OS each time, and the next step faults it in again, zero-filled (about
1,250 minor faults per desk step when steps ran in float64).  A 256 x 256
float64 phantom buffer (512 KiB) is above glibc's default mmap threshold,
so each one `synthgen.generate` allocates would be a fresh mapping (about
1,200 minor faults per phantom when every full-image pass allocated one),
and none faults once the pages are held.
`hold_freed_pages` fixes the mmap threshold at glibc's 64-bit ceiling and
the trim threshold above it, so blocks below 32 MiB come from the heap and
up to 64 MiB of freed heap stays with the process.

It also caps glibc at one malloc arena.  `synthgen.generate_dataset`
renders phantoms on a second thread, and by default glibc gives that thread
its own arena.  Each arena would then hold its own freed pages, and the
process would keep two heaps' worth of pages where one serves.  Without the
cap, two-thread generation raised peak RSS by 8.0 MB (+17%) on perfbench's
`prepare` workload and by 6.9 MB (+9%) on `probe-scan` (2-core x86-64).
With one arena the threads share one heap and its held pages; they take its
lock only to allocate a phantom's few buffers.  Unlike
`blas.one_thread` nothing is restored: glibc has no getter for these
settings, so the setting lasts for the life of the process.  Without
glibc's `mallopt` it does nothing.
"""

from __future__ import annotations

import ctypes
import functools

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


@functools.cache
def hold_freed_pages() -> bool:
    """Set glibc's mmap and trim thresholds and its arena cap once per process;
    True if all three took."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest on 64-bit
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    arena_set = mallopt(_M_ARENA_MAX, 1)  # before any thread asks for an arena of its own
    return mmap_set == 1 and trim_set == 1 and arena_set == 1

"""Run fits on one BLAS thread.

spar's solves are small (m <= n, n in the hundreds): BLAS threads only add
synchronization to them, and the thread count changes the last bits of the
results.  The count is process-wide, and so is the guard: the outermost
guarded call sets every OpenBLAS in the process to one thread, and the last
one to return restores the counts found, also when it raises.
"""

import ctypes
import functools
import logging
import threading

logger = logging.getLogger(__name__)

# (getter, setter) names in numpy's and scipy's wheels, then in a system OpenBLAS
_SYMBOLS = [(f"{p}openblas_get_num_threads{s}", f"{p}openblas_set_num_threads{s}")
            for p in ("scipy_", "") for s in ("64_", "")]
_lock = threading.Lock()
_depth, _saved = 0, []  # open guarded calls; [(setter, count)] found by the outermost


@functools.cache
def blas_controls() -> list:
    """(getter, setter) of every OpenBLAS in the process, looked up once; none is logged."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split(None, 5)[5].strip() for line in f
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        paths = set()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # mapped, then deleted or replaced on disk
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    if not found:
        logger.warning("no OpenBLAS thread control found: fits run under the BLAS "
                       "library's own threading, and results may depend on it")
    return found


def one_blas_thread(fn):
    """Run fn with every OpenBLAS on one thread; reentrant and safe across threads."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = [(set_, get()) for get, set_ in blas_controls()]
                for set_, _ in _saved:
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for set_, count in _saved:
                        set_(count)

    return guarded

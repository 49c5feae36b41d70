"""Thread-count control for the BLAS library NumPy links against.

The fleet engine's per-tick classify is one small GEMM over the whole
device batch (a 15→32→6 MLP).  From a few thousand rows OpenBLAS splits
such a product across its worker threads, and the workers then
spin-wait through the rest of the tick: on a 2-vCPU host a fused
campaign burned about two CPU seconds in the idle worker for every
three wall seconds of simulation.  :func:`blas_threads` pins the
library to a given thread count for the duration of a ``with`` block
and restores the caller's count afterwards;
:meth:`repro.exec.engine.StepEngine.run` runs its whole tick loop
under ``blas_threads(1)``.

The count is set through the library's own
``openblas_set_num_threads`` entry point (in any of the symbol
spellings OpenBLAS builds use), called via :mod:`ctypes`.  GEMM results
do not depend on the thread count, so pinning changes no value.  Any
other BLAS (MKL, Accelerate, an unknown build), or a platform without
``/proc/self/maps``, makes the context a no-op.  The thread count is process-wide: two Python threads entering
overlapping contexts restore each other's counts in exit order.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple

import numpy  # noqa: F401  (loads the BLAS this module controls)

__all__ = ["blas_thread_count", "blas_threads"]

#: ``(get, set)`` symbol pairs, most specific first: the
#: ``scipy-openblas`` wheels NumPy ships (64-bit and 32-bit integer
#: builds), then suffixed and plain upstream OpenBLAS.
_SYMBOL_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_Control = Tuple[Callable[[], int], Callable[[int], None]]


def _candidate_libraries() -> List[str]:
    """Paths of the BLAS-looking shared libraries this process loaded.

    Read from the process's own memory map, so only Linux has any:
    elsewhere the pin is a no-op.  NumPy's BLAS is loaded once NumPy is
    imported.
    """
    paths: List[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower():
                    paths.append(path)
    except OSError:
        pass
    return list(dict.fromkeys(paths))


@lru_cache(maxsize=None)
def _controller() -> Optional[_Control]:
    """The ``(get, set)`` thread-count calls of the loaded BLAS, if any."""
    for path in _candidate_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOL_PAIRS:
            try:
                getter = getattr(library, get_name)
                setter = getattr(library, set_name)
            except AttributeError:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return getter, setter
    return None


def blas_thread_count() -> Optional[int]:
    """The BLAS's current thread count, or ``None`` when uncontrollable."""
    control = _controller()
    return None if control is None else int(control[0]())


@contextmanager
def blas_threads(count: int) -> Iterator[None]:
    """Run the body with the BLAS pinned to ``count`` threads.

    The previous count is restored on exit, also when the body raises.
    Without a controllable BLAS the context does nothing.
    """
    control = _controller()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)

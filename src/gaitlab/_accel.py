"""Optional numba acceleration for the hot kernels.

Numba is used whenever it can be imported; without it the decorated
functions run unchanged under CPython and compute bit-identical results
(same scalar operations in the same order), only slower.  A compiled
kernel's ``.py_func`` runs the interpreted version.
"""

try:
    from numba import njit as _njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False


def maybe_njit(**options):
    """``numba.njit(**options)`` when numba is importable, else a decorator
    that returns the function unchanged."""
    if NUMBA_ENABLED:
        return _njit(**options)
    return lambda func: func

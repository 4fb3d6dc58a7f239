"""``NUMBA_ENABLED`` is always False; perfbench still reads it, and it goes with ROADMAP item 1."""

NUMBA_ENABLED = False

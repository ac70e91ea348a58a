"""Pausing the cyclic garbage collector around allocation-heavy work.

A simulation cell allocates millions of short-lived, reference-counted
objects (in-flight ops, predictions, decoded rows, checkpoint nodes)
that refcounting alone reclaims; generation-0 passes over them — which
also rescan the long-lived trace and predictor tables — are pure
overhead.  One pause covers a whole cell (DESIGN.md §8).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Disable the cyclic collector inside the block.

    The caller's state is restored on every exit, exceptions included:
    an enabled collector is re-enabled, a disabled one stays disabled.
    Nested pauses are no-ops.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

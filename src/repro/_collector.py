"""One scoped pause of the cyclic garbage collector, for code that makes
no reference cycles.

CPython frees an object the moment its last reference goes, unless it
sits in a reference cycle; only such cycles need the cyclic collector.
The collector is triggered by allocation counts, not by garbage, so code
that allocates many long-lived objects makes it traverse them again and
again, finding nothing to free.  sdnlint's entry points (every parsed tree
is still alive while the next is parsed) and each adversary replay (a
world of channels, views and pending events) are such code, and run
under :func:`_collector_paused`.

The pause is sound only while the paused code leaves no cycle behind:
nothing sdnlint builds points back up a tree, and a world holds no
reference back to itself once its run has emptied the event heap.  The
``TestNoGarbage`` tests of both hold them to it.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the block (or the call,
    as a decorator), then put back the state it found.

    A collector that was already off stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()

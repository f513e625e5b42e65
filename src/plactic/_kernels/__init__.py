"""Kernel backend selection.

The compiled backend is used when available; PLACTIC_PURE=1 forces the
pure-Python fallback.  Letters outside C int range overflow the compiled
kernels, so every entry point retries such calls in pure Python.
"""

from __future__ import annotations

import functools
import os

from . import _pure

if os.environ.get("PLACTIC_PURE"):
    _impl = _pure
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND: str = _impl.BACKEND


def _retry_in_pure(name):
    # Both backends are looked up at call time, so a wrapper installed on
    # either module later still sees its calls.
    @functools.wraps(getattr(_pure, name))
    def call(*args, **kwargs):
        try:
            return getattr(_impl, name)(*args, **kwargs)
        except OverflowError:
            return getattr(_pure, name)(*args, **kwargs)

    return call


insertion_rows = _retry_in_pure("insertion_rows")
insert_rows = _retry_in_pure("insert_rows")
commutes = _retry_in_pure("commutes")
count_commuting = _retry_in_pure("count_commuting")
commuting_words = _retry_in_pure("commuting_words")

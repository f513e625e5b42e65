"""Kernel backend selection.

The four kernel entry points are ``insertion_rows``, ``commutes``,
``count_commuting`` and ``commuting_words``.  ``_pure`` implements them in
Python, and its scan tests membership once per insertion tableau.  The C
extension ``_speedups`` (built from ``_speedups.c`` by
``python setup.py build_ext --inplace``) gives the same results by a
different algorithm: its scan is an odometer that tests every word.  The C
module is used when it is importable; PLACTIC_PURE=1, and no other value,
forces pure Python.  ``BACKEND`` is ``"c"`` or ``"pure"``.  The C module
holds letters as C long long, so a call with a letter beyond that range
raises OverflowError there and is retried in pure Python.
"""

from __future__ import annotations

import functools
import os

from . import _pure

if os.environ.get("PLACTIC_PURE") == "1":
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
commutes = _retry_in_pure("commutes")
count_commuting = _retry_in_pure("count_commuting")
commuting_words = _retry_in_pure("commuting_words")

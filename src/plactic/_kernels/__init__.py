"""Kernel backend selection, and counting by member tableau.

The four backend entry points are ``insertion_rows``, ``commutes``,
``commuting_tableaux`` and ``commuting_words``.  ``_pure`` implements them
in Python.  The C extension ``_speedups`` (built from ``_speedups.c`` by
``python setup.py build_ext --inplace``) implements the same four, with
the same tableau fill and the same results; its ``commuting_words`` is an
odometer that tests every word, where the pure one tests each insertion
tableau once.  The C module is used when it is importable; PLACTIC_PURE=1,
and no other value, forces pure Python.  ``BACKEND`` is ``"c"`` or
``"pure"``.  The C module holds letters as C long long, so a call with a
letter beyond that range raises OverflowError there and is retried in pure
Python.

``count_commuting`` is written once, here, on top of
``commuting_tableaux``.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter

from ..tableau import hook_product
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
commuting_tableaux = _retry_in_pure("commuting_tableaux")
commuting_words = _retry_in_pure("commuting_words")


def count_commuting(u, n, m):
    """Number of words w in [m]^n with P(uw) == P(wu).

    Membership depends on P(w) alone, and each tableau of shape lambda is
    P(w) for f^lambda = n!/(hook product) words, so this sums f^lambda over
    commuting_tableaux(u, n, m), one hook product per shape.
    """
    shapes = Counter(tuple(map(len, rows)) for rows in commuting_tableaux(u, n, m))
    words = math.factorial(n)
    return sum(count * (words // hook_product(shape)) for shape, count in shapes.items())

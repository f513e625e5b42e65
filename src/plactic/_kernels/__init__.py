"""Kernel backend selection, and counting and listing by member tableau.

The two backend entry points are ``insertion_rows`` and
``commuting_tableaux``.  ``_pure`` implements them in Python.  The C
extension ``_speedups`` (built from ``_speedups.c`` by
``python setup.py build_ext --inplace``) implements the same two, with the
same results; both run the one tableau fill that ``_pure`` describes,
bump rules and row-1 test included.  The C module is used when it is
importable; PLACTIC_PURE=1, and no other value, forces pure Python.
``BACKEND`` is ``"c"`` or ``"pure"``.  The C module holds letters as C
long long, so a call with a letter beyond that range raises OverflowError
there and is retried in pure Python.

``count_commuting`` and ``commuting_words`` are written once, here, on top
of ``commuting_tableaux``, and ``same_insertion`` (P(x) == P(y), the test
behind ``in_centralizer`` and ``knuth_equivalent``) on top of
``insertion_rows`` and the pure first-row pass.
"""

from __future__ import annotations

import functools
import os
from collections import Counter

from ..tableau import f_lambda
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
commuting_tableaux = _retry_in_pure("commuting_tableaux")


def same_insertion(x, y):
    """True iff the words x and y (tuples of ints) have the same insertion
    tableau, P(x) == P(y).

    Equal words are settled without insertion.  Otherwise the lengths and
    the first rows must agree: row 1 of P(x) is ``_pure._row_pass([], x)``,
    one bisect per letter, since bumped letters never come back to row 1.
    That pass runs in Python on either backend.  Only words that agree on
    both are inserted in full, through ``insertion_rows``.
    """
    if x == y:
        return True
    if len(x) != len(y) or _pure._row_pass([], x) != _pure._row_pass([], y):
        return False
    return insertion_rows(x) == insertion_rows(y)


def count_commuting(u, n, m):
    """Number of words w in [m]^n with P(uw) == P(wu).

    Membership depends on P(w) alone, and each tableau of shape lambda is
    P(w) for f^lambda words, so this sums f^lambda over
    commuting_tableaux(u, n, m), computed once per shape.
    """
    shapes = Counter(tuple(map(len, rows)) for rows in commuting_tableaux(u, n, m))
    return sum(count * f_lambda(shape) for shape, count in shapes.items())


def commuting_words(u, n, m):
    """The words w in [m]^n with P(uw) == P(wu), in lexicographic order:
    the words of the Knuth classes of commuting_tableaux(u, n, m)."""
    return class_words(commuting_tableaux(u, n, m), n)


def class_words(tableaux, n):
    """The words w with P(w) in ``tableaux`` (distinct tableaux of n cells,
    as tuples of row tuples), in lexicographic order.

    The words of length n are the letter sequences of the insertion paths
    () -> P(w[:1]) -> ... -> P(w).  The paths that end in ``tableaux`` are
    built back, level by level from n cells down to none: reverse-bumping
    the last cell of each corner row of T gives (S, a) with S <- a = T, an
    edge labelled a from S to T.  Only integer ids and edges are kept per
    level, so beyond the words the memory is that of two levels of
    tableaux and the edges.  The words are then the paths from the empty
    tableau, walked in letter order with an explicit stack.
    """
    level = {rows: i for i, rows in enumerate(tableaux)}
    if not level:
        return []
    if n == 0:
        return [()]
    # edges[k][i]: the (letter, id at level k + 1) edges out of tableau i at
    # level k, sorted.  Every tableau below level n has at least one.
    edges = [None] * n
    for k in range(n - 1, -1, -1):
        below = {}
        out = []
        for rows, i in level.items():
            for r, row in enumerate(rows):
                if r + 1 < len(rows) and len(rows[r + 1]) == len(row):
                    continue  # not a corner row
                # Only rows 0..r change; the rows under r are shared.
                top = [list(x) for x in rows[: r + 1]]
                a = _pure._pop(top, r)
                s = tuple([tuple(x) for x in top]) + rows[r + 1 :]
                j = below.get(s)
                if j is None:
                    j = below[s] = len(out)
                    out.append([])
                out[j].append((a, i))
        for e in out:
            e.sort()
        edges[k] = out
        level = below
    found = []
    word = []
    stack = [iter(edges[0][0])]
    while stack:
        for a, i in stack[-1]:
            word.append(a)
            if len(word) == n:
                found.append(tuple(word))
                word.pop()
            else:
                stack.append(iter(edges[len(word)][i]))
            break
        else:
            stack.pop()
            if word:
                word.pop()
    return found

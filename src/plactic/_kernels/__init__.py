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

``count_commuting`` is written once, here, on top of
``commuting_tableaux`` and the shape tally ``count_words``, and
``same_insertion`` (P(x) == P(y), the test behind ``in_centralizer`` and
``knuth_equivalent``) on top of ``insertion_rows`` and the pure first-row
pass.  Words are listed only by the block walk ``class_blocks``: the
insertion paths into a set of tableaux, split at one level into prefixes
and shared suffix tables, with the spelling of a letter chosen by the
caller.  The centralizer listing and the Knuth classes join its blocks.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_left
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


def count_words(shapes):
    """Number of words whose insertion tableaux have the given shapes, one
    shape per tableau: each tableau of shape lambda is P(w) for f^lambda
    words, and the shapes are tallied first, so f^lambda is computed once
    per shape."""
    return sum(count * f_lambda(shape) for shape, count in Counter(shapes).items())


def count_commuting(u, n, m):
    """Number of words w in [m]^n with P(uw) == P(wu).

    Membership depends on P(w) alone, so this is ``count_words`` over the
    shapes of commuting_tableaux(u, n, m).
    """
    return count_words(tuple(map(len, rows)) for rows in commuting_tableaux(u, n, m))


def _reverse_edges(tableaux, n):
    """edges[k][i], for k < n: the sorted (letter, id at level k + 1) edges
    out of tableau i at level k of the insertion paths that end in
    ``tableaux`` (ids at level n are their positions).

    The levels are built back from n cells down to none: reverse-bumping
    the last cell of each corner row of T gives (S, a) with S <- a = T, an
    edge labelled a from S to T.  Only the rows above the corner change,
    and they are rebuilt as tuples by slicing; the rows under it are
    shared.  Only integer ids and edges are kept per level, so the memory
    is that of two levels of tableaux and the edges.  Every tableau below
    level n has at least one edge out.
    """
    level = {rows: i for i, rows in enumerate(tableaux)}
    edges = [None] * n
    for k in range(n - 1, -1, -1):
        below = {}
        out = []
        for rows, i in level.items():
            last = len(rows) - 1
            for r, row in enumerate(rows):
                if r < last and len(rows[r + 1]) == len(row):
                    continue  # not a corner row
                top = list(rows[:r])
                a = row[-1]
                for q in range(r - 1, -1, -1):
                    x = top[q]
                    pos = bisect_left(x, a) - 1  # the rightmost entry < a
                    top[q] = x[:pos] + (a,) + x[pos + 1 :]
                    a = x[pos]
                if len(row) > 1:
                    top.append(row[:-1])
                s = tuple(top) + rows[r + 1 :]
                j = below.get(s)
                if j is None:
                    j = below[s] = len(out)
                    out.append([])
                out[j].append((a, i))
        for e in out:
            e.sort()
        edges[k] = out
        level = below
    return edges


def _path_totals(edges, top):
    """(prefixes, suffixes, edge count) of the levels ``_reverse_edges``
    built for ``top`` tableaux: prefixes[k] counts the paths from the
    empty tableau to level k and suffixes[k] the paths from level k to
    level n, one pass over the edges each way."""
    n = len(edges)
    reach = [1]
    prefixes = [1]
    for k in range(n):
        nxt = [0] * (len(edges[k + 1]) if k + 1 < n else top)
        for c, e in zip(reach, edges[k]):
            for _, j in e:
                nxt[j] += c
        reach = nxt
        prefixes.append(sum(nxt))
    leave = [1] * top
    suffixes = [top] * (n + 1)
    count = 0
    for k in range(n - 1, -1, -1):
        leave = [sum([leave[j] for _, j in e]) for e in edges[k]]
        suffixes[k] = sum(leave)
        count += sum(map(len, edges[k]))
    return prefixes, suffixes, count


def _split_level(prefixes, suffixes, edge_count):
    """The level h in 1..n (0 when n = 0) at which ``class_blocks`` joins
    prefixes to suffix tables, from the totals of ``_path_totals``.

    It minimises the letters built, counting a prefix's head and a
    suffix's end marker as one letter each: the walk pushes one letter
    per prefix of length k <= h and spells each prefix of length h, and
    the suffix tables of levels h..n - 1 hold entries of n - k letters:

        sum(prefixes[1..h]) + (h + 1) prefixes[h]
            + sum((n - k + 1) suffixes[k] for k = h..n - 1)

    Both sums are running sums, so the choice is O(n).  Ties go to the
    larger h, which builds fewer tables, so a class of one word is walked
    to h = n.  An h < n is allowed only when its suffix tables hold no
    more entries than there are edges; the suffix totals shrink as k
    grows, so then every table level built fits that bound too.
    """
    n = len(prefixes) - 1
    walked = [0] * (n + 1)
    for k in range(1, n + 1):
        walked[k] = walked[k - 1] + prefixes[k]
    best, best_cost = n, walked[n] + (n + 1) * prefixes[n]
    tables = 0
    for h in range(n - 1, 0, -1):
        if suffixes[h] > edge_count:
            break
        tables += (n - h + 1) * suffixes[h]
        cost = walked[h] + (h + 1) * prefixes[h] + tables
        if cost < best_cost:
            best, best_cost = h, cost
    return best


def _tuple_letter(a):
    return (a,)


def class_blocks(tableaux, letter=_tuple_letter, end=()):
    """The words w with P(w) in ``tableaux`` (a sequence of distinct
    tableaux with the same number n of cells, as tuples of row tuples;
    n is read off the first) as blocks (prefix, suffixes), in
    lexicographic order: the words are ``prefix + s`` for s in suffixes,
    block after block, with no sort.  A prefix is a tuple of h letters,
    and a suffix is spelled ``letter(a)`` per letter followed by ``end``;
    the defaults spell tuples of ints, and a caller that spells text
    spells the prefixes itself.  The suffix lists are shared between
    blocks and must not be changed.

    The words of length n are the letter sequences of the insertion paths
    () -> P(w[:1]) -> ... -> P(w), built back by ``_reverse_edges``.  This
    is a split walk: at the level h that ``_split_level`` picks, each
    tableau gets one table of the suffixes that lead from it to
    ``tableaux``, built once, level by level up from n; a stack walk over
    the paths to level h, in letter order, then yields one block per
    prefix of h letters.  Beyond the
    blocks, the memory is that of the levels, the edges and one level of
    suffix tables, which holds no more entries than there are edges.
    """
    if not tableaux:
        return
    n = sum(map(len, tableaux[0]))
    edges = _reverse_edges(tableaux, n)
    h = _split_level(*_path_totals(edges, len(tableaux)))
    spelled = {}
    tables = [[end]] * len(tableaux)
    for k in range(n - 1, h - 1, -1):
        level = []
        for e in edges[k]:
            table = []
            for a, j in e:
                c = spelled.get(a)
                if c is None:
                    c = spelled[a] = letter(a)
                table += [c + s for s in tables[j]]
            level.append(table)
        tables = level
        edges[k] = None
    if h == 0:
        yield (), tables[0]
        return
    prefix = []
    stack = [iter(edges[0][0])]
    while stack:
        for a, i in stack[-1]:
            prefix.append(a)
            if len(prefix) == h:
                yield tuple(prefix), tables[i]
                prefix.pop()
            else:
                stack.append(iter(edges[len(prefix)][i]))
            break
        else:
            stack.pop()
            if prefix:
                prefix.pop()

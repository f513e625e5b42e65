"""Row insertion, the RSK correspondence, and weakly increasing subsequences.

``p_tableau`` goes through the compiled kernel when available; the traced
single-letter insertion and the (P, Q) pair builder are pure Python since
they only run at interactive scale.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from . import _kernels
from .errors import QNotStandardError, ShapeMismatchError
from .tableau import Tableau, Word, word

# A bump trace is a tuple of (row, col, displaced-entry-or-None), 1-based,
# one triple per row visited; only the last triple has displaced None.
BumpTrace = tuple


def row_insert(t: Tableau, a: int) -> tuple:
    """Insert ``a`` into ``t`` by Schensted bumping.

    Returns (new tableau, bump trace).  Each visited row displaces at most
    one entry: the leftmost entry strictly greater than the incoming value.
    """
    if a < 1:
        raise ValueError(f"letters must be positive integers, got {a!r}")
    rows = list(t.rows)
    path = []
    r = 0
    while True:
        if r == len(rows):
            rows.append((a,))
            path.append((r + 1, 1, None))
            break
        row = rows[r]
        pos = bisect_right(row, a)
        if pos == len(row):
            rows[r] = row + (a,)
            path.append((r + 1, pos + 1, None))
            break
        path.append((r + 1, pos + 1, row[pos]))
        rows[r] = row[:pos] + (a,) + row[pos + 1 :]
        a = row[pos]
        r += 1
    return Tableau._unchecked(tuple(rows)), tuple(path)


def p_tableau(w: Iterable[int]) -> Tableau:
    """Insertion tableau P(w)."""
    return Tableau._unchecked(_kernels.insertion_rows(word(w)))


def rsk_pair(w: Iterable[int]) -> tuple:
    """The RSK pair (P, Q); Q is standard and records insertion order."""
    w = word(w)
    p = Tableau._unchecked(())
    q_rows: list = []
    for k, a in enumerate(w, start=1):
        p, path = row_insert(p, a)
        r = path[-1][0] - 1
        if r == len(q_rows):
            q_rows.append((k,))
        else:
            q_rows[r] = q_rows[r] + (k,)
    return p, Tableau._unchecked(tuple(q_rows))


def _check_standard(q: Tableau) -> None:
    n = q.size
    seen = sorted(a for row in q.rows for a in row)
    if seen != list(range(1, n + 1)):
        raise QNotStandardError(f"entries are not exactly 1..{n}")
    # Tableau validity gives weak rows / strict columns; distinct entries
    # upgrade the rows to strict, so nothing else to check.


def inverse_rsk(p: Tableau, q: Tableau) -> Word:
    """Recover the word from an RSK pair by reverse bumping."""
    if p.shape != q.shape:
        raise ShapeMismatchError(f"P shape {p.shape} != Q shape {q.shape}")
    _check_standard(q)
    n = p.size
    rows = [list(r) for r in p.rows]
    pos = {}
    for i, row in enumerate(q.rows):
        for j, a in enumerate(row):
            pos[a] = (i, j)
    out = []
    for t in range(n, 0, -1):
        i, j = pos[t]
        x = rows[i].pop()
        if not rows[i]:
            rows.pop()
        for r in range(i - 1, -1, -1):
            row = rows[r]
            # rightmost entry < x
            lo, hi = 0, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] < x:
                    lo = mid + 1
                else:
                    hi = mid
            row[lo - 1], x = x, row[lo - 1]
        out.append(x)
    out.reverse()
    return tuple(out)


def knuth_class(t: Tableau) -> list:
    """The words w with P(w) = t, sorted; there are f^shape of them."""
    return _kernels.class_words([t.rows], t.size)


def _longest_weak_prefix_lengths(w: Word) -> list:
    # lengths[i] = longest weakly increasing subsequence ending at index i
    lengths = []
    for i, a in enumerate(w):
        best = 0
        for j in range(i):
            if w[j] <= a and lengths[j] > best:
                best = lengths[j]
        lengths.append(best + 1)
    return lengths


def lwi(w: Iterable[int]) -> int:
    """Length of the longest weakly increasing subsequence."""
    w = word(w)
    return max(_longest_weak_prefix_lengths(w), default=0)


def lwi_ending_at(w: Iterable[int], a: int) -> int:
    """Longest weakly increasing subsequence ending in the letter ``a``.

    Only the rightmost occurrence of ``a`` matters: moving the final letter
    of such a subsequence to a later occurrence keeps it weakly increasing.
    """
    w = word(w)
    for i in range(len(w) - 1, -1, -1):
        if w[i] == a:
            return _longest_weak_prefix_lengths(w[: i + 1])[i]
    return 0

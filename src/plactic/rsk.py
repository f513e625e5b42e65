"""Row insertion, the RSK correspondence, and weakly increasing subsequences.

``p_tableau`` goes through the compiled kernel when available.  The (P, Q)
pair builder and its inverse fold the in-place row-list bumps of the pure
kernel, ``_push`` and ``_pop``, and build each tableau once; the traced
single-letter ``row_insert`` is kept as public API and as the pair
builder's independent oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from . import _kernels
from ._kernels._pure import _pop, _push, _row_pass
from .errors import QNotStandardError, ShapeMismatchError
from .tableau import Tableau, Word, word


def row_insert(t: Tableau, a: int) -> tuple:
    """Insert the letter ``a`` into ``t`` by Schensted bumping.

    Returns (new tableau, bump trace).  Each visited row displaces at most
    one entry: the leftmost entry strictly greater than the incoming value.
    The trace is a tuple of (row, col, displaced entry or None), 1-based,
    one triple per row visited; only the last triple has displaced None.
    """
    word((a,))
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
    p_rows: list = []
    q_rows: list = []
    for k, a in enumerate(word(w), start=1):
        r = _push(p_rows, a)
        if r == len(q_rows):
            q_rows.append([])
        q_rows[r].append(k)
    return _as_tableau(p_rows), _as_tableau(q_rows)


def _as_tableau(rows: list) -> Tableau:
    return Tableau._unchecked(tuple([tuple(row) for row in rows]))


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
    rows = [list(row) for row in p.rows]
    row_of = {t: i for i, row in enumerate(q.rows) for t in row}
    out = [_pop(rows, row_of[t]) for t in range(p.size, 0, -1)]
    out.reverse()
    return tuple(out)


def _first_row(w: Word) -> tuple:
    # Row 1 of P(w) holds, in place i, the least letter that ends a weakly
    # increasing subsequence of length i + 1 (Schensted's theorem).  It is
    # one row pass over w: the letters bumped out of row 1 never return.
    return tuple(_row_pass([], w))


def lwi(w: Iterable[int]) -> int:
    """Length of the longest weakly increasing subsequence: the length of
    the first row of P(w)."""
    return len(_first_row(word(w)))


def lwi_ending_at(w: Iterable[int], a: int) -> int:
    """Longest weakly increasing subsequence ending in the letter ``a``.

    Only the rightmost occurrence of ``a`` matters: moving the final letter
    of such a subsequence to a later occurrence keeps it weakly increasing.
    The longest one ending there is that ``a`` after the longest one in the
    prefix before it whose last letter is <= a, and row 1 of P(prefix)
    holds exactly that many entries <= a.
    """
    w = word(w)
    word((a,))
    for i in range(len(w) - 1, -1, -1):
        if w[i] == a:
            return bisect_right(_first_row(w[:i]), a) + 1
    return 0

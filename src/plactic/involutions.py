"""Involutions on words and tableaux used by the symmetry conjectures."""

from __future__ import annotations

from .errors import BadParameterError, MaxEntryExceedsMError, WordParseError
from .rsk import p_tableau
from .tableau import SkewTableau, Tableau, Word, word


def bender_knuth(t: Tableau, u: int) -> Tableau:
    """Swap the multiplicities of u and u+1 in each row, fixing every
    vertically paired u / u+1 and rewriting the free ones in place."""
    if u < 1:
        raise WordParseError(f"letter must be positive, got {u}")
    rows = [list(r) for r in t.rows]
    for i, row in enumerate(rows):
        above = rows[i - 1] if i > 0 else []
        below = rows[i + 1] if i + 1 < len(rows) else []
        free = []
        for j, v in enumerate(row):
            if v == u:
                # a u with u+1 directly below is locked
                if j < len(below) and below[j] == u + 1:
                    continue
                free.append(j)
            elif v == u + 1:
                if j < len(above) and above[j] == u:
                    continue
                free.append(j)
        x = sum(1 for j in free if row[j] == u)
        y = len(free) - x
        for idx, j in enumerate(free):
            row[j] = u if idx < y else u + 1
    return Tableau(tuple(tuple(r) for r in rows))


def rc_m(w: Word | list, m: int) -> Word:
    """Reverse and complement (v -> m - v + 1) the subword of letters <= m,
    leaving larger letters in place."""
    w = word(w)
    if m < 0:
        raise BadParameterError(f"m must be >= 0, got {m}")
    small = [v for v in w if v <= m]
    replaced = iter(m - v + 1 for v in reversed(small))
    return tuple(next(replaced) if v <= m else v for v in w)


def evacuation_m(t: Tableau, m: int) -> Tableau:
    """The m-evacuation of a tableau with entries <= m."""
    if t.max_entry() > m:
        raise MaxEntryExceedsMError(
            f"entry {t.max_entry()} exceeds m = {m}"
        )
    return p_tableau(rc_m(t.row_word(), m))


def split_at(t: Tableau, m: int):
    """Cut a tableau into its entries <= m (a straight tableau) and the
    rest (a skew tableau on the leftover cells)."""
    low_rows = []
    for row in t.rows:
        low_rows.append(tuple(v for v in row if v <= m))
    while low_rows and not low_rows[-1]:
        low_rows.pop()
    low = Tableau(tuple(low_rows))
    inner = tuple(sum(1 for v in row if v <= m) for row in t.rows)
    high_rows = tuple(tuple(v for v in row if v > m) for row in t.rows)
    keep = len(high_rows)
    while keep and not high_rows[keep - 1]:
        keep -= 1
    if keep == 0:
        return low, SkewTableau((), (), ())
    return low, SkewTableau(t.shape[:keep], inner[:keep], high_rows[:keep])


def tau_m(t: Tableau, m: int) -> Tableau:
    """Evacuate the entries <= m in place, leaving the larger entries
    where they are."""
    low, high = split_at(t, m)
    evac = evacuation_m(low, m)
    if evac.shape != low.shape:
        raise MaxEntryExceedsMError(
            f"evacuation changed shape {low.shape} -> {evac.shape}"
        )
    rows = []
    n_rows = max(len(evac.rows), len(high.rows))
    for i in range(n_rows):
        small = evac.rows[i] if i < len(evac.rows) else ()
        big = high.rows[i] if i < len(high.rows) else ()
        rows.append(small + big)
    return Tableau(tuple(rows))

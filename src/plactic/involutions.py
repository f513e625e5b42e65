"""Involutions on words and tableaux used by the symmetry conjectures."""

from __future__ import annotations

from bisect import bisect_right

from . import _kernels
from .centralizer import natural_int
from .errors import MaxEntryExceedsMError
from .rsk import p_tableau
from .tableau import SkewTableau, Tableau, Word, word


def bender_knuth(t: Tableau, u: int) -> Tableau:
    """Swap the multiplicities of u and u+1 in each row, fixing every
    vertically paired u / u+1 and rewriting the free ones in place."""
    word((u,))
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
    natural_int(m, "m")
    small = [v for v in w if v <= m]
    replaced = iter(m - v + 1 for v in reversed(small))
    return tuple(next(replaced) if v <= m else v for v in w)


def evacuation_m(t: Tableau, m: int) -> Tableau:
    """The m-evacuation of a tableau with entries <= m."""
    natural_int(m, "m")
    if t.max_entry() > m:
        raise MaxEntryExceedsMError(
            f"entry {t.max_entry()} exceeds m = {m}"
        )
    return p_tableau(rc_m(t.row_word(), m))


def _cut(t: Tableau, m: int) -> list:
    """The number of entries <= m in each row of t.  Since the columns of
    t strictly increase, this is a partition padded with zeros."""
    natural_int(m, "m")
    return [bisect_right(row, m) for row in t.rows]


def _low(t: Tableau, cut: list) -> Tableau:
    """The row prefixes that the cut keeps: a tableau, as cut is a partition."""
    return Tableau._unchecked(tuple(row[:k] for row, k in zip(t.rows, cut) if k))


def split_at(t: Tableau, m: int):
    """Cut each row of a tableau after its entries <= m.  The prefixes
    form a straight tableau; the suffixes form a skew tableau of outer
    shape t.shape over the cut, both cut off after the last row with an
    entry > m."""
    cut = _cut(t, m)
    keep = max((i + 1 for i, (row, k) in enumerate(zip(t.rows, cut)) if k < len(row)), default=0)
    high = tuple(row[k:] for row, k in zip(t.rows[:keep], cut))
    return _low(t, cut), SkewTableau(t.shape[:keep], cut[:keep], high)


def tau_m(t: Tableau, m: int) -> Tableau:
    """Evacuate the entries <= m in place, leaving the larger entries
    where they are: the row prefixes of entries <= m are evacuated as one
    tableau, and each row's suffix follows its new prefix.  The prefixes
    are evacuated as evacuation_m does, by inserting their reversed,
    complemented row word, without its checks: every entry of the cut is
    <= m.  The image is a tableau, so it is built without re-checking its
    cells."""
    cut = _cut(t, m)
    low = [m + 1 - v for row, k in zip(t.rows, cut) for v in reversed(row[:k])]
    evac = _kernels.insertion_rows(low)
    prefixes = evac + ((),) * (len(cut) - len(evac))
    return Tableau._unchecked(tuple(e + row[k:] for e, row, k in zip(prefixes, t.rows, cut)))

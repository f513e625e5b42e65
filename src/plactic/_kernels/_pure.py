"""Pure-Python insertion kernels.

Reference implementation of the four kernel entry points: Schensted row
insertion (``insertion_rows``), the commutation test P(uw) == P(wu)
(``commutes``), and the lexicographic scan of commuting words over a block
of word indices (``count_commuting``, ``commuting_words``).  The C module
plactic._kernels._speedups mirrors this module; both must produce identical
results on identical inputs.  Letters are unbounded Python ints here.

Tableaux are passed around as tuples of row tuples (top row first).
"""

from __future__ import annotations

from bisect import bisect_right

BACKEND = "pure"

Rows = tuple


def _insert(rows, a):
    # Bump the leftmost entry strictly greater than a; rows not touched by
    # the bump chain are shared with the input.
    out = list(rows)
    r = 0
    while True:
        if r == len(out):
            out.append((a,))
            return tuple(out)
        row = out[r]
        pos = bisect_right(row, a)
        if pos == len(row):
            out[r] = row + (a,)
            return tuple(out)
        out[r] = row[:pos] + (a,) + row[pos + 1 :]
        a = row[pos]
        r += 1


def insertion_rows(word):
    """Insertion tableau of ``word`` as a tuple of row tuples."""
    rows = ()
    for a in word:
        rows = _insert(rows, a)
    return rows


def insert_rows(rows, letters):
    """Insert ``letters`` in order into an existing tableau (a step of
    ``commutes``, not a kernel entry point)."""
    rows = tuple(tuple(r) for r in rows)
    for a in letters:
        rows = _insert(rows, a)
    return rows


def commutes(u, w):
    """True iff P(u.w) == P(w.u)."""
    u = tuple(u)
    w = tuple(w)
    return insert_rows(insertion_rows(u), w) == insert_rows(insertion_rows(w), u)


def _digits_of(index, n, m):
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        index, digits[i] = divmod(index, m)
    return digits


def _scan(u, n, m, start, stop, collect):
    """Count (or collect) words w in [m]^n with P(uw) == P(wu).

    Words are visited in lexicographic order over the index range
    [start, stop); an odometer keeps per-prefix tableaux for both
    P(w[:i]) and P(u . w[:i]) so each step re-inserts only the suffix.
    """
    if n < 0 or start < 0:
        raise ValueError("word length and start must be >= 0")
    total = m**n if n else 1
    if stop is None:
        stop = total
    stop = min(stop, total)
    found = [] if collect else None
    count = 0
    if start >= stop:
        return found if collect else count
    if n == 0:
        # The empty word commutes with everything.
        if collect:
            return [()]
        return 1
    if m < 1:
        return found if collect else count

    pu = insertion_rows(u)
    pa = [()] * (n + 1)
    pb = [()] * (n + 1)
    pb[0] = pu
    digits = _digits_of(start, n, m)
    for i in range(n):
        pa[i + 1] = _insert(pa[i], digits[i] + 1)
        pb[i + 1] = _insert(pb[i], digits[i] + 1)

    idx = start
    while True:
        tail = pa[n]
        for a in u:
            tail = _insert(tail, a)
        if tail == pb[n]:
            if collect:
                found.append(tuple(d + 1 for d in digits))
            else:
                count += 1
        idx += 1
        if idx >= stop:
            break
        p = n - 1
        while digits[p] == m - 1:
            digits[p] = 0
            p -= 1
        digits[p] += 1
        for i in range(p, n):
            pa[i + 1] = _insert(pa[i], digits[i] + 1)
            pb[i + 1] = _insert(pb[i], digits[i] + 1)
    return found if collect else count


def count_commuting(u, n, m, start=0, stop=None):
    """Number of words w in [m]^n, index range [start, stop), with P(uw) == P(wu)."""
    return _scan(tuple(u), n, m, start, stop, collect=False)


def commuting_words(u, n, m, start=0, stop=None):
    """The words themselves, in lexicographic order."""
    return _scan(tuple(u), n, m, start, stop, collect=True)

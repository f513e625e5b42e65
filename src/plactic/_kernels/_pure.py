"""Pure-Python insertion kernels.

Reference implementation of the four kernel entry points: Schensted row
insertion (``insertion_rows``), the commutation test P(uw) == P(wu)
(``commutes``), and the members of C(u) in [m]^n, listed by insertion
tableau (``commuting_tableaux``) and word by word (``commuting_words``).
Letters are unbounded Python ints here.

Both listings test membership once per insertion tableau, not once per
word: Knuth equivalence is a congruence, so whether w commutes with u
depends on P(w) alone.  ``commuting_tableaux`` fills each tableau by
backtracking, the algorithm of the C module plactic._kernels._speedups as
well, so the brute-force definition is its independent check.
``commuting_words`` runs an odometer over w[:n-1] and memoizes the
commuting last letters per P(w[:n-1]); the C odometer tests every word, so
there each backend is an oracle for the other.  Counting is written once,
in plactic._kernels, over ``commuting_tableaux``.

Tableaux are passed around as tuples of row tuples (top row first).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

BACKEND = "pure"


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
    return insert_rows((), word)


def insert_rows(rows, letters):
    """Insert ``letters`` in order into an existing tableau (a step of
    ``commutes`` and of the scan's membership test, not a kernel entry
    point)."""
    out = [list(row) for row in rows]
    for a in letters:
        for row in out:
            pos = bisect_right(row, a)
            if pos == len(row):
                row.append(a)
                break
            row[pos], a = a, row[pos]
        else:
            out.append([a])
    # Exact-size tuples: a tuple built from an iterator is resized, and in
    # a long scan that churn fills the interpreter's tuple free lists.
    return tuple([tuple(row) for row in out])


def commutes(u, w):
    """True iff P(u.w) == P(w.u)."""
    u = tuple(u)
    w = tuple(w)
    return insert_rows(insertion_rows(u), w) == insert_rows(insertion_rows(w), u)


def _commuting_letters(prefix, u, pu, m):
    """The letters a in [1, m] for which w . a commutes with u, for every
    word w with P(w) = prefix; pu is P(u).

    Knuth equivalence is a congruence, so P(w . a . u) is prefix <- a <- u
    and P(u . w . a) is P(u . w) <- a, where P(u . w) is P(u) <- the row
    word of prefix.
    """
    uw = insert_rows(pu, [b for row in reversed(prefix) for b in row])
    found = []
    for a in range(1, m + 1):
        if insert_rows(_insert(prefix, a), u) == _insert(uw, a):
            found.append(a)
    return tuple(found)


def _shapes(n, rows):
    """The partitions of n with at most ``rows`` parts, in the order of
    enumeration.iter_partitions (reverse lexicographic)."""
    if n == 0:
        yield ()
        return
    if rows < 1:
        return
    lam = [n]
    while True:
        yield tuple(lam)
        # Lower the rightmost part that can drop by one while the parts
        # after it, no larger, still hold the rest within the row cap;
        # fill them greedily.
        rest = 0
        for i in range(len(lam) - 1, -1, -1):
            rest += lam[i]
            part = lam[i] - 1
            if part and rest - part <= part * (rows - i - 1):
                full, tail = divmod(rest - part, part)
                lam[i:] = [part] * (full + 1) + ([tail] if tail else [])
                break
        else:
            return


def _push(rows, a):
    """Insert a into a tableau of row lists in place; return the index of
    the row that grew."""
    for r, row in enumerate(rows):
        pos = bisect_right(row, a)
        if pos == len(row):
            row.append(a)
            return r
        row[pos], a = a, row[pos]
    rows.append([a])
    return len(rows) - 1


def _pop(rows, r):
    """Undo the _push that grew row r: reverse-bump its last entry up to
    the first row and drop the letter that leaves it."""
    a = rows[r].pop()
    if not rows[r]:
        rows.pop()
    for r in range(r - 1, -1, -1):
        row = rows[r]
        pos = bisect_left(row, a) - 1  # the rightmost entry < a
        row[pos], a = a, row[pos]


def commuting_tableaux(u, n, m):
    """The tableaux T with n cells and entries in [1, m] for which the words
    with P(w) = T commute with u, as tuples of row tuples.

    A word w is in C(u) iff T <- u == P(u) <- rowword(T) for T = P(w).
    Shapes come in the order of enumeration.iter_partitions and, within a
    shape, the row words in lexicographic order.  Each shape is filled by
    backtracking in row-word order, bottom row first and left to right,
    while one tableau P(u) <- (the row word so far) is kept up to date:
    insert on the way down, reverse-bump on the way back.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    if m < 1:
        return []
    u = tuple(u)
    state = [list(row) for row in insertion_rows(u)]
    found = []
    for shape in _shapes(n, m):
        # Fill t in row-word order: bottom row first, left to right; row is
        # t[i] and under is the row below it.  grew holds, per filled cell,
        # the row of state its insertion grew.
        t = [[0] * length for length in shape]
        i, j = len(t) - 1, 0
        row, under = t[i], []
        v = i + 1
        grew = []
        while True:
            hi = under[j] - 1 if j < len(under) else m
            if i == 0 and j == len(row) - 1:
                # The top row's last cell: test every value it can take.
                for v in range(v, hi + 1):
                    row[j] = v
                    end = _push(state, v)
                    tu = [r[:] for r in t]
                    for a in u:
                        _push(tu, a)
                    if tu == state:
                        found.append(tuple([tuple(r) for r in t]))
                    _pop(state, end)
                v = hi + 1
            if v <= hi:
                row[j] = v
                grew.append(_push(state, v))
                j += 1
                if j < len(row):
                    v = row[j - 1]
                else:
                    i, j = i - 1, 0
                    row, under = t[i], row
                    v = i + 1
            elif not grew:
                break
            else:
                if j:
                    j -= 1
                else:
                    i += 1
                    row, under = t[i], t[i + 1] if i + 1 < len(t) else []
                    j = len(row) - 1
                _pop(state, grew.pop())
                v = row[j] + 1
    return found


def commuting_words(u, n, m):
    """The words themselves, in lexicographic order.

    An odometer over the first n - 1 letters keeps P(w[:i]) for each prefix
    length i.  Each prefix is followed by its commuting last letters, which
    are memoized per P(w[:n-1]).
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    if m < 1:
        return []
    u = tuple(u)
    pu = insertion_rows(u)
    memo = {}  # P(w[:n-1]) -> its commuting last letters
    digits = [1] * (n - 1)  # the letters of w[:n-1]
    tabs = [()] * n  # tabs[i] = P(w[:i])
    for i in range(n - 1):
        tabs[i + 1] = _insert(tabs[i], 1)
    found = []
    while True:
        letters = memo.get(tabs[n - 1])
        if letters is None:
            letters = memo[tabs[n - 1]] = _commuting_letters(tabs[n - 1], u, pu, m)
        if letters:
            prefix = tuple(digits)
            found.extend([prefix + (a,) for a in letters])
        p = n - 2
        while p >= 0 and digits[p] == m:
            digits[p] = 1
            p -= 1
        if p < 0:
            return found
        digits[p] += 1
        for i in range(p, n - 1):
            tabs[i + 1] = _insert(tabs[i], digits[i])

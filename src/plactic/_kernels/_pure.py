"""Pure-Python insertion kernels.

Reference implementation of the two kernel entry points: Schensted row
insertion (``insertion_rows``) and the insertion tableaux of the members
of C(u) in [m]^n (``commuting_tableaux``).  Letters are unbounded Python
ints here.

The listing tests membership once per insertion tableau, not once per
word: Knuth equivalence is a congruence, so whether w commutes with u
depends on P(w) alone.  ``commuting_tableaux`` fills each tableau by
backtracking, and the C module plactic._kernels._speedups runs the same
fill, described here once.  Two bump rules, necessary conditions for
membership on T = P(w) and u alone, skip values before any test; R is the
first row of T.

* Row rule.  Row 1 of P(u w) = P(u . lower rows . R) keeps every letter
  of R, since R is weakly increasing and read last; row 1 of T <- u is R
  minus the entries u bumps, plus letters of u.  So every entry of R that
  u bumps is a letter of u, and in particular the leftmost entry of R
  greater than u[0]: a top-row value above u[0], with every value left of
  it at most u[0], must be a letter of u.
* Column rule.  P(u w) = u[0] -> (... -> (u[-1] -> T)) by column
  insertion, and row insertion never moves an entry out of column 1.  So
  every column-1 entry of T that u displaces is a letter of u, and in
  particular the smallest one >= u[-1].  When a row's first cell takes a
  value below u[-1], that entry is the first cell of the row under it
  (when that is >= u[-1]), whatever the value; so if it is not a letter
  of u, every value below u[-1] fails and the cell jumps to u[-1].  In
  the top row, a first value >= u[-1] is that entry itself.

Each value of the top row's last cell is then tested on row 1 alone
before the full test: row 1 of T <- u depends on row 1 of T alone, and
row 1 of state <- v on row 1 of state alone.  The unpruned fill is kept
as the tests' oracle, beside the brute-force definition.  Counting and
listing the words are written once, in plactic._kernels, over
``commuting_tableaux``.

Tableaux are passed around as tuples of row tuples (top row first).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..tableau import iter_partitions

BACKEND = "pure"


def insertion_rows(word):
    """Insertion tableau of ``word`` as a tuple of row tuples."""
    out = []
    for a in word:
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


def _row_pass(row, letters):
    """Row 1 of a tableau with first row ``row`` after inserting
    ``letters``, computed in place on the list ``row``: each letter
    replaces the leftmost entry greater than it, or is appended, and the
    letters it bumps are dropped, since they never come back to row 1."""
    for a in letters:
        pos = bisect_right(row, a)
        if pos == len(row):
            row.append(a)
        else:
            row[pos] = a
    return row


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
    the first row and return the letter that leaves it."""
    a = rows[r].pop()
    if not rows[r]:
        rows.pop()
    for r in range(r - 1, -1, -1):
        row = rows[r]
        pos = bisect_left(row, a) - 1  # the rightmost entry < a
        row[pos], a = a, row[pos]
    return a


def commuting_tableaux(u, n, m):
    """The tableaux T with n cells and entries in [1, m] for which the words
    with P(w) = T commute with u, as tuples of row tuples.

    A word w is in C(u) iff T <- u == P(u) <- rowword(T) for T = P(w).
    Shapes come in the order of tableau.iter_partitions and, within a
    shape, the row words in lexicographic order.  Each shape is filled by
    backtracking in row-word order, bottom row first and left to right,
    while one tableau P(u) <- (the row word so far) is kept up to date:
    insert on the way down, reverse-bump on the way back.  The bump rules
    of the module docstring skip values of column 1 and of the top row,
    and a value of the last cell is tested in full only when the first
    rows of both sides agree.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [()]
    if m < 1:
        return []
    u = tuple(u)
    state = [list(row) for row in insertion_rows(u)]
    in_u = set(u)
    letters = sorted(in_u)
    # With u = () no value is above u[0] or at least u[-1], so no rule fires.
    u_first, u_last = (u[0], u[-1]) if u else (m, m + 1)
    need_first = min(u_first + 1, u_last)
    found = []
    for shape in iter_partitions(n, m):
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
            if j == 0 and v < u_last and under and under[0] >= u_last and under[0] not in in_u:
                # Column rule: u[-1] would displace under[0] from column 1.
                v = u_last
            if i == 0:
                # Row rule, and the column rule at the top row's first
                # cell: every value of this cell from need up must be a
                # letter of u.
                if j == 0:
                    need = need_first
                else:
                    need = u_first + 1 if row[j - 1] <= u_first else m + 1
                if v >= need and v not in in_u:
                    k = bisect_left(letters, v)
                    v = letters[k] if k < len(letters) else m + 1
                if j == len(row) - 1:
                    # The top row's last cell: test every value it can take.
                    first = state[0] if state else []
                    for v in range(v, hi + 1):
                        if v >= need and v not in in_u:
                            continue
                        row[j] = v
                        # Row 1 of T <- u against row 1 of state <- v.
                        pos = bisect_right(first, v)
                        if _row_pass(row[:], u) != first[:pos] + [v] + first[pos + 1 :]:
                            continue
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

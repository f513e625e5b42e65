"""Pure-Python insertion kernels.

Reference implementation of the four kernel entry points: Schensted row
insertion (``insertion_rows``), the commutation test P(uw) == P(wu)
(``commutes``), and the scan of the words of [m]^n that commute with u
(``count_commuting``, ``commuting_words``).  Letters are
unbounded Python ints here.

The scan tests membership once per insertion tableau, not once per word:
Knuth equivalence is a congruence, so whether w commutes with u depends on
P(w) alone.  The C module plactic._kernels._speedups gives the same results
by a different algorithm, an odometer that tests every word, so each
backend is an oracle for the other.

Tableaux are passed around as tuples of row tuples (top row first).
"""

from __future__ import annotations

from bisect import bisect_right

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


def count_commuting(u, n, m):
    """Number of words w in [m]^n with P(uw) == P(wu).

    A forward pass carries {P(w[:i]): multiplicity} from i = 0 to n - 1 and
    ends in the sum of mult(T) times the number of commuting last letters
    of T.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return 1  # the empty word commutes with everything
    if m < 1:
        return 0
    u = tuple(u)
    pu = insertion_rows(u)
    level = {(): 1}
    for _ in range(n - 1):
        nxt = {}
        # Equal rows bumped along different paths are separate tuples;
        # keeping one copy of each makes a level of tableaux smaller.
        shared = {}
        for rows, mult in level.items():
            for a in range(1, m + 1):
                grown = _insert(rows, a)
                if grown in nxt:
                    nxt[grown] += mult
                else:
                    nxt[tuple([shared.setdefault(row, row) for row in grown])] = mult
        level = nxt
    return sum(mult * len(_commuting_letters(rows, u, pu, m)) for rows, mult in level.items())


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

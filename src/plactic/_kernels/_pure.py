"""Pure-Python insertion kernels.

Reference implementation of the four kernel entry points: Schensted row
insertion (``insertion_rows``), the commutation test P(uw) == P(wu)
(``commutes``), and the scan of commuting words over a lexicographic block
of word indices (``count_commuting``, ``commuting_words``).  Letters are
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


def _digits_of(index, n, m):
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        index, digits[i] = divmod(index, m)
    return digits


def _window(n, m, start, stop):
    """The scan window [start, stop) clipped to |[m]^n|; n = 0 has the one
    empty word."""
    if n < 0 or start < 0:
        raise ValueError("word length and start must be >= 0")
    total = m**n if n else 1
    if stop is None:
        stop = total
    return total, min(stop, total)


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


def count_commuting(u, n, m, start=0, stop=None):
    """Number of words w in [m]^n, index range [start, stop), with P(uw) == P(wu).

    A forward pass carries {P(w[:i]): multiplicity} from i = 0 to n - 1 and
    ends in the sum of mult(T) times the number of commuting last letters
    of T.  A window is F(stop) - F(start), F(x) counting the words of index
    below x.  Those words are the lexicographic blocks x[:i] + (a,) + any
    suffix, a below the letter x_i: each block of i < n - 1 enters the pass
    at level i + 1 with the sign of its end of the window, and the blocks
    of the last letter are read off P(x[:n-1]) directly.
    """
    total, stop = _window(n, m, start, stop)
    if start >= stop:
        return 0
    if n == 0:
        return 1  # the empty word commutes with everything
    if m < 1:
        return 0
    u = tuple(u)
    pu = insertion_rows(u)
    count = 0
    inject = {}  # level -> {P(block prefix): signed multiplicity}
    for x, sign in ((stop, 1), (start, -1)):
        if x == total:  # only stop can be; F(total) is all of [m]^n
            inject[0] = {(): sign}
            continue
        digits = _digits_of(x, n, m)
        rows = ()
        for i in range(n - 1):
            for a in range(1, digits[i] + 1):
                level = inject.setdefault(i + 1, {})
                block = _insert(rows, a)
                level[block] = level.get(block, 0) + sign
            rows = _insert(rows, digits[i] + 1)
        if digits[-1]:
            count += sign * bisect_right(_commuting_letters(rows, u, pu, m), digits[-1])
    level = {}
    for i in range(n):
        for rows, mult in inject.pop(i, {}).items():
            level[rows] = level.get(rows, 0) + mult
        if i == n - 1:
            break
        nxt = {}
        # Equal rows bumped along different paths are separate tuples;
        # keeping one copy of each makes a level of tableaux smaller.
        shared = {}
        for rows, mult in level.items():
            if mult:
                for a in range(1, m + 1):
                    grown = _insert(rows, a)
                    if grown in nxt:
                        nxt[grown] += mult
                    else:
                        nxt[tuple([shared.setdefault(row, row) for row in grown])] = mult
        level = nxt
    for rows, mult in level.items():
        if mult:
            count += mult * len(_commuting_letters(rows, u, pu, m))
    return count


def commuting_words(u, n, m, start=0, stop=None):
    """The words themselves, in lexicographic order.

    An odometer over the first n - 1 letters keeps P(w[:i]) for each prefix
    length i.  Each prefix is followed by those of its commuting last
    letters whose word falls in the window; the letters are memoized per
    P(w[:n-1]).
    """
    total, stop = _window(n, m, start, stop)
    if start >= stop:
        return []
    if n == 0:
        return [()]
    if m < 1:
        return []
    u = tuple(u)
    pu = insertion_rows(u)
    memo = {}  # P(w[:n-1]) -> its commuting last letters
    first, last = start // m, (stop - 1) // m
    digits = _digits_of(first, n - 1, m)
    tabs = [()] * n  # tabs[i] = P(w[:i])
    for i in range(n - 1):
        tabs[i + 1] = _insert(tabs[i], digits[i] + 1)
    found = []
    for prefix_index in range(first, last + 1):
        letters = memo.get(tabs[n - 1])
        if letters is None:
            letters = memo[tabs[n - 1]] = _commuting_letters(tabs[n - 1], u, pu, m)
        if letters:
            prefix = tuple([d + 1 for d in digits])  # exact size, as in insert_rows
            base = prefix_index * m - 1  # the index of prefix + (a,) is base + a
            found.extend([prefix + (a,) for a in letters if start <= base + a < stop])
        if prefix_index == last:
            break
        p = n - 2
        while digits[p] == m - 1:
            digits[p] = 0
            p -= 1
        digits[p] += 1
        for i in range(p, n - 1):
            tabs[i + 1] = _insert(tabs[i], digits[i] + 1)
    return found

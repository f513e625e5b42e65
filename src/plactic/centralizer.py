"""Membership in plactic centralizers.

C(u) is the set of words w with P(uw) = P(wu).  ``in_centralizer`` is the
brute oracle; the ``test_*`` functions are the fast characterizations for
the word families where one is known.  Each characterization reads off the
insertion tableau P(w) alone.
"""

from __future__ import annotations

import os
from typing import Iterable

from . import _kernels
from .errors import BadParameterError, BudgetExceededError
from .rsk import lwi, lwi_ending_at, p_tableau
from .tableau import Tableau, Word, row_count_filter, word

DEFAULT_BUDGET = 10**8


def default_budget() -> int:
    """Word-enumeration budget; PLACTIC_BUDGET overrides the default 10^8."""
    raw = os.environ.get("PLACTIC_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return positive_int(int(raw), "PLACTIC_BUDGET")
    except ValueError:  # BadParameterError included
        raise BadParameterError(f"PLACTIC_BUDGET must be a positive integer, got {raw!r}") from None


def in_centralizer(u: Iterable[int], w: Iterable[int]) -> bool:
    """True iff w is in C(u): uw is Knuth-equivalent to wu, that is,
    P(uw) == P(wu).  ``_kernels.same_insertion`` decides it, and inserts in
    full only when uw != wu and their first rows agree."""
    u = word(u)
    w = word(w)
    return _kernels.same_insertion(u + w, w + u)


def test_single_letter_rows(u: int, w: Iterable[int]) -> bool:
    """Row test for membership in C(u), u a single letter: every entry of
    the first row is <= u, and for each i the entries < u in row i match
    the entries <= u in row i+1 in number (missing rows count 0)."""
    word((u,))
    t = p_tableau(word(w))
    rows = t.rows
    if rows and rows[0][-1] > u:
        return False
    for i in range(len(rows)):
        below = rows[i + 1] if i + 1 < len(rows) else ()
        if row_count_filter(rows[i], u, True) != row_count_filter(below, u, False):
            return False
    return True


def test_single_letter_cols(u: int, w: Iterable[int]) -> bool:
    """Column test, equivalent to the row test: every column of P(w)
    contains the letter u."""
    word((u,))
    t = p_tableau(word(w))
    return all(u in col for col in t.columns())


def test_c1_lwi(w: Iterable[int]) -> bool:
    """Membership in C(1): some longest weakly increasing subsequence
    ends in a 1, i.e. lwi(w) == lwi_ending_at(w, 1)."""
    w = word(w)
    return lwi(w) == lwi_ending_at(w, 1)


def is_yamanouchi(w: Iterable[int]) -> bool:
    """Every suffix contains at least as many i's as (i+1)'s, for all i."""
    w = word(w)
    counts: dict = {}
    for a in reversed(w):
        counts[a] = counts.get(a, 0) + 1
        if a > 1 and counts[a] > counts.get(a - 1, 0):
            return False
    return True


def c12_columns(cols) -> bool:
    """The C(12) rule on the columns of an insertion tableau: singleton
    columns hold 1s or 2s and, if any exist, both a singleton 1 and a
    singleton 2 occur; every column of height >= 2 contains both a 1 and
    a 2.  Only rows 1 and 2 matter, so the rule also reads a tableau's
    first two rows alone."""
    singles = {col[0] for col in cols if len(col) == 1}
    if singles and singles != {1, 2}:
        return False
    return all(1 in col and 2 in col for col in cols if len(col) >= 2)


def test_c12(w: Iterable[int]) -> bool:
    """Membership in C(12), the column rule ``c12_columns`` on P(w)."""
    return c12_columns(p_tableau(word(w)).columns())


def test_c212(w: Iterable[int]) -> bool:
    """Membership in C(212): like C(12) but every singleton column must be
    a singleton 2."""
    cols = p_tableau(word(w)).columns()
    for col in cols:
        if len(col) == 1:
            if col[0] != 2:
                return False
        elif 1 not in col or 2 not in col:
            return False
    return True


def test_staircase(m: int, w: Iterable[int]) -> bool:
    """Membership in C(m, m-1, ..., 1): rows 1..m of P(w) have max <= m."""
    m = positive_int(m, "m")
    t = p_tableau(word(w))
    return all(row[-1] <= m for row in t.rows[:m])


def _shown(count: int) -> str:
    """``count`` in decimal, or its power of two when it has more digits
    than Python converts to a string."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


def positive_int(value, name: str) -> int:
    """``value``, which must be an int >= 1 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BadParameterError(f"{name} must be a positive integer, got {value!r}")
    return value


def natural_int(value, name: str) -> int:
    """``value``, which must be an int >= 0 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BadParameterError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def resolve_budget(budget) -> int:
    """default_budget() for None, else ``budget``, a positive int."""
    return default_budget() if budget is None else positive_int(budget, "budget")


def require_budget(total: int, budget, what: str) -> int:
    """Raise BudgetExceeded when ``total`` (the count of ``what``) is over
    the budget, resolved by resolve_budget.  Returns the budget used."""
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceededError(f"{what}: {_shown(total)}, over the budget {_shown(limit)}")
    return limit


# A total of at most this many bits is cheap to build, and more than the
# 14,284 bits (4,300 digits) that Python prints by default.
_BUILT_BITS = 1 << 16


def refuse_at_least(k: int, budget, what: str) -> int:
    """The budget, resolved by resolve_budget, unless a total of ``what``
    known to be at least 2^k is both over it and past _BUILT_BITS bits:
    then BudgetExceeded shows it as at least 2^k, and the caller builds
    nothing.  This is the one refusal that builds no total; below it the
    caller builds the exact total, which for the bounds used here has
    under about 2 * _BUILT_BITS bits, and require_budget compares it."""
    limit = resolve_budget(budget)
    if k >= max(_BUILT_BITS, limit.bit_length()):
        raise BudgetExceededError(f"{what}: at least 2^{k}, over the budget {_shown(limit)}")
    return limit


def _scan_of(u: Iterable[int], n: int, m: int, budget) -> Word:
    """word(u), once the m^n words of [m]^n fit the budget; a length or
    alphabet that is not an int >= 0 is a BadParameterError.  m^n is at
    least 2^k, k = n * (bits(m) - 1), which refuse_at_least settles before
    m^n is built.  A fill holds n cells, so for m = 1 the one word's n
    letters are charged instead."""
    u = word(u)
    m, n = natural_int(m, "alphabet m"), natural_int(n, "word length n")
    what = f"words in [{m}]^{n}"
    limit = refuse_at_least(n * (m.bit_length() - 1), budget, what)
    if m == 1:
        require_budget(n, limit, f"letters in [1]^{n}")
    else:
        require_budget(m**n, limit, what)
    return u


def centralizer_words(u: Iterable[int], n: int, m: int, budget=None) -> list:
    """All w in [m]^n with P(uw) == P(wu), in lexicographic order: the
    joined blocks of ``_centralizer_blocks``, which ``plactic centralizer``
    streams instead.  Raises BudgetExceeded when m^n is over the word
    budget."""
    return [p + s for p, suffixes in _centralizer_blocks(u, n, m, budget) for s in suffixes]


def _centralizer_blocks(u: Iterable[int], n: int, m: int, budget=None, **spelling):
    """The words of centralizer_words(u, n, m) as the blocks (prefix,
    suffixes) of ``_kernels.class_blocks``: prefixes are tuples of ints,
    and suffixes are spelled as ``spelling`` says (tuples by default).

    The budget is checked here, before the first block: raises
    BudgetExceeded when m^n is over the word budget.
    """
    u = _scan_of(u, n, m, budget)
    return _kernels.class_blocks(_kernels.commuting_tableaux(u, n, m), **spelling)


def centralizer_tableaux(u: Iterable[int], n: int, m: int, budget=None) -> list:
    """The insertion tableaux P(w) of the w in [m]^n with P(uw) == P(wu):
    shapes as tableau.iter_partitions lists them, then row words in
    lexicographic order.  Each T stands for the f^shape(T) words of its
    Knuth class.

    Raises BudgetExceeded when m^n is over the word budget.
    """
    u = _scan_of(u, n, m, budget)
    return [Tableau._unchecked(rows) for rows in _kernels.commuting_tableaux(u, n, m)]


def count_centralizer_words(u: Iterable[int], n: int, m: int, budget=None) -> int:
    """len(centralizer_words(u, n, m)) without materializing the words."""
    u = _scan_of(u, n, m, budget)
    return _kernels.count_commuting(u, n, m)

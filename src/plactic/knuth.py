"""Elementary Knuth transformations and Knuth equivalence classes.

The two moves act on a window of three adjacent letters:

    a c b  <->  c a b   when a <= b < c
    b a c  <->  b c a   when a < b <= c

Two words are Knuth equivalent exactly when they have the same insertion
tableau, so the class of w is read off P(w): its f^shape words are the
insertion paths that end at P(w).
"""

from __future__ import annotations

from typing import Iterable

from . import _kernels
from .centralizer import refuse_at_least, require_budget
from .tableau import f_lambda, f_lambda_log2_floor, word


def knuth_neighbors(w: Iterable[int]) -> frozenset:
    """All words reachable from ``w`` by a single Knuth move."""
    w = word(w)
    out = set()
    for i in range(len(w) - 2):
        x, y, z = w[i], w[i + 1], w[i + 2]
        # acb -> cab and cab -> acb (swap the first two of the window)
        if x <= z < y or y <= z < x:
            out.add(w[:i] + (y, x, z) + w[i + 3 :])
        # bac -> bca and bca -> bac (swap the last two)
        if y < x <= z or z < x <= y:
            out.add(w[:i] + (x, z, y) + w[i + 3 :])
    return frozenset(out)


def knuth_equivalent(v: Iterable[int], w: Iterable[int]) -> bool:
    """True iff v and w have the same insertion tableau, decided by
    ``_kernels.same_insertion``: equal words, then lengths and first rows,
    then full insertion."""
    return _kernels.same_insertion(word(v), word(w))


def knuth_class(w: Iterable[int]) -> frozenset:
    """The Knuth class of ``w``: the words with the insertion tableau P(w).

    Raises BudgetExceeded when its f^shape words are over the word budget;
    a float lower bound refuses a huge class before f^shape is built.
    """
    w = word(w)
    rows = _kernels.insertion_rows(w)
    shape = tuple(map(len, rows))
    what = "words in the Knuth class"
    limit = refuse_at_least(f_lambda_log2_floor(shape), None, what)
    require_budget(f_lambda(shape), limit, what)
    blocks = _kernels.class_blocks([rows])
    return frozenset(p + s for p, suffixes in blocks for s in suffixes)

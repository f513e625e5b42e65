"""Elementary Knuth transformations and Knuth equivalence classes.

The two moves act on a window of three adjacent letters:

    a c b  <->  c a b   when a <= b < c
    b a c  <->  b c a   when a < b <= c
"""

from __future__ import annotations

from typing import Iterable

from . import _kernels
from .errors import BoundExceededError
from .tableau import word

DEFAULT_CLASS_BOUND = 10


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
    """True iff v and w have the same insertion tableau."""
    return _kernels.insertion_rows(word(v)) == _kernels.insertion_rows(word(w))


def knuth_class(w: Iterable[int]) -> frozenset:
    """The full Knuth class of ``w`` by breadth-first closure of the moves;
    a word longer than DEFAULT_CLASS_BOUND raises BoundExceededError."""
    w = word(w)
    if len(w) > DEFAULT_CLASS_BOUND:
        raise BoundExceededError(f"|w| = {len(w)} exceeds the class bound {DEFAULT_CLASS_BOUND}")
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for x in knuth_neighbors(v):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return frozenset(seen)

from collections import defaultdict

import pytest

from plactic import (
    BoundExceededError,
    knuth_class,
    knuth_equivalent,
    knuth_neighbors,
    p_tableau,
)
from plactic.knuth import DEFAULT_CLASS_BOUND

from helpers import words_over


def test_neighbors_examples():
    assert knuth_neighbors((1, 3, 2)) == {(3, 1, 2)}
    assert knuth_neighbors((1, 2, 3)) == frozenset()
    assert knuth_neighbors((2, 1, 2)) == {(2, 2, 1)}
    assert knuth_neighbors(()) == frozenset()
    assert knuth_neighbors((1, 2)) == frozenset()


def test_neighbors_both_windows_in_one_word():
    # 1 3 2 matches the first move at position 0, 3 2 4 the second at 1
    got = knuth_neighbors((1, 3, 2, 4))
    assert got == {(3, 1, 2, 4), (1, 3, 4, 2)}


def test_moves_are_involutive():
    for w in words_over(3, 5):
        for v in knuth_neighbors(w):
            assert w in knuth_neighbors(v)


def test_equivalent_examples():
    assert knuth_equivalent((2, 1, 2), (2, 2, 1))
    assert not knuth_equivalent((2, 1, 2), (1, 2, 2))
    assert knuth_equivalent((), ())
    assert not knuth_equivalent((1,), ())


def test_class_example():
    assert knuth_class((2, 1, 2)) == {(2, 1, 2), (2, 2, 1)}
    assert knuth_class(()) == {()}
    assert knuth_class((5,)) == {(5,)}


def test_class_bound():
    with pytest.raises(BoundExceededError):
        knuth_class((1,) * (DEFAULT_CLASS_BOUND + 1))
    assert knuth_class((1,) * DEFAULT_CLASS_BOUND) == {(1,) * DEFAULT_CLASS_BOUND}


def test_class_equals_insertion_fiber():
    """The BFS closure of the moves lands exactly on the words that share
    an insertion tableau, for every word over [3] up to length 6."""
    by_tableau = defaultdict(set)
    for w in words_over(3, 6):
        by_tableau[p_tableau(w)].add(w)
    for w in words_over(3, 6):
        fiber = by_tableau[p_tableau(w)]
        assert knuth_class(w) == fiber


def test_neighbors_stay_equivalent():
    for w in words_over(4, 5):
        t = p_tableau(w)
        for v in knuth_neighbors(w):
            assert p_tableau(v) == t

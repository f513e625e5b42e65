import random
import re
from collections import defaultdict

import pytest

from plactic import (
    BudgetExceededError,
    _kernels,
    f_lambda,
    knuth,
    knuth_class,
    knuth_equivalent,
    knuth_neighbors,
    p_tableau,
)

from helpers import knuth_class_oracle, words_over


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


def test_class_bound(monkeypatch):
    """The word budget bounds the f^shape words of a class; the length of
    the word does not."""
    assert knuth_class((1,) * 40) == {(1,) * 40}
    w = (3, 1, 2, 1, 4)  # P(w) has shape (3, 1, 1), with 6 words
    assert f_lambda(p_tableau(w).shape) == 6
    monkeypatch.setenv("PLACTIC_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match="words in the Knuth class: 6, over the budget 5"):
        knuth_class(w)
    monkeypatch.setenv("PLACTIC_BUDGET", "6")
    assert len(knuth_class(w)) == 6


def test_class_of_a_long_word_is_the_closure():
    w = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
    got = knuth_class(w)
    assert len(got) == 1155
    assert got == knuth_class_oracle(w)


def test_huge_class_is_refused_by_the_budget():
    """A class whose size has more digits than Python prints still raises
    BudgetExceeded, not the int-to-str ValueError."""
    w = tuple(1 + (i * 7919) % 63 for i in range(4000))
    with pytest.raises(BudgetExceededError, match=r"words in the Knuth class: at least 2\^"):
        knuth_class(w)


def test_class_past_the_built_bits_is_refused_without_f_lambda(monkeypatch):
    """A class of about 2^108,000 words is refused from the float lower
    bound on f^shape, which never builds f^shape, and the 2^k it shows is
    a true lower bound."""
    rng = random.Random(31)
    w = tuple(rng.randint(1, 50) for _ in range(20000))
    exact_bits = f_lambda(map(len, _kernels.insertion_rows(w))).bit_length()

    def refuse(shape):
        raise AssertionError("f_lambda was built")

    monkeypatch.setattr(knuth, "f_lambda", refuse)
    with pytest.raises(BudgetExceededError, match=r"words in the Knuth class: at least 2\^") as err:
        knuth_class(w)
    k = int(re.search(r"at least 2\^(\d+)", str(err.value)).group(1))
    assert 1 << 16 <= k <= exact_bits - 1


def test_class_equals_insertion_fiber():
    """The closure of the moves lands exactly on the words that share an
    insertion tableau, and knuth_class lists them, for every word over [3]
    up to length 6."""
    by_tableau = defaultdict(set)
    for w in words_over(3, 6):
        by_tableau[p_tableau(w)].add(w)
    for w in words_over(3, 6):
        fiber = by_tableau[p_tableau(w)]
        assert knuth_class_oracle(w) == fiber
        assert knuth_class(w) == fiber


def test_neighbors_stay_equivalent():
    for w in words_over(4, 5):
        t = p_tableau(w)
        for v in knuth_neighbors(w):
            assert p_tableau(v) == t

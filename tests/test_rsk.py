import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plactic import (
    QNotStandardError,
    ShapeMismatchError,
    Tableau,
    dominates,
    inverse_rsk,
    knuth_class,
    lwi,
    lwi_ending_at,
    p_tableau,
    row_insert,
    rsk_pair,
)
from plactic import _kernels
from plactic.rsk import _first_row
from plactic.enumeration import iter_ssyt
from plactic.tableau import iter_partitions

from helpers import class_words, lwi_oracle, p_oracle, syt_count_oracle, words_over

words = st.lists(st.integers(min_value=1, max_value=5), max_size=9).map(tuple)
BIG = 2**40


def rsk_pair_by_row_insert(w):
    """(P, Q) rows by folding the public row_insert over w: Q takes k in the
    row of the last step of the k-th bump trace."""
    p = Tableau(())
    q_rows = []
    for k, a in enumerate(w, start=1):
        p, trace = row_insert(p, a)
        r = trace[-1][0] - 1
        if r == len(q_rows):
            q_rows.append(())
        q_rows[r] += (k,)
    return p.rows, tuple(q_rows)


def _pair_rows(w):
    p, q = rsk_pair(w)
    return p.rows, q.rows


def test_row_insert_examples():
    t, trace = row_insert(Tableau(((2,),)), 1)
    assert t.rows == ((1,), (2,))
    assert trace == ((1, 1, 2), (2, 1, None))

    t, trace = row_insert(Tableau(((1, 2), (2,))), 2)
    assert t.rows == ((1, 2, 2), (2,))
    assert trace == ((1, 3, None),)

    t, _ = row_insert(Tableau(()), 7)
    assert t.rows == ((7,),)


def test_bump_trace_rows_strictly_increase():
    for w in words_over(3, 6):
        t = Tableau(())
        for a in w:
            t, trace = row_insert(t, a)
            rows_touched = [step[0] for step in trace]
            assert rows_touched == sorted(set(rows_touched))
            assert trace[-1][2] is None
            for step in trace[:-1]:
                assert step[2] is not None


def test_p_tableau_examples():
    assert p_tableau((2, 1, 2)).rows == ((1, 2), (2,))
    assert p_tableau(()).rows == ()
    assert p_tableau((1, 1, 3, 5)).rows == ((1, 1, 3, 5),)


def test_rsk_pair_example():
    p, q = rsk_pair((2, 1, 2))
    assert p.rows == ((1, 2), (2,))
    assert q.rows == ((1, 3), (2,))


def test_rsk_pair_increasing_word():
    p, q = rsk_pair((1, 2, 2, 4))
    assert q.rows == ((1, 2, 3, 4),)
    assert p.rows == ((1, 2, 2, 4),)


def test_rsk_pair_matches_row_insert_exhaustive():
    for w in words_over(3, 7):
        assert _pair_rows(w) == rsk_pair_by_row_insert(w)


@given(st.lists(st.integers(1, 4) | st.integers(1, BIG), max_size=30).map(tuple))
def test_rsk_pair_matches_row_insert_property(w):
    assert _pair_rows(w) == rsk_pair_by_row_insert(w)


def test_rsk_long_word_big_letters():
    """A 2,000-letter word with letters up to 2^40 and repeats: rsk_pair
    agrees with folding row_insert, and inverse_rsk gives the word back."""
    rng = random.Random(20261018)
    w = tuple(rng.choice((rng.randint(1, 9), rng.randint(1, BIG))) for _ in range(2000))
    p, q = rsk_pair(w)
    assert (p.rows, q.rows) == rsk_pair_by_row_insert(w)
    assert inverse_rsk(p, q) == w


def test_inverse_rsk_examples():
    assert inverse_rsk(Tableau(((1, 2), (2,))), Tableau(((1, 3), (2,)))) == (2, 1, 2)
    assert inverse_rsk(Tableau(()), Tableau(())) == ()
    assert rsk_pair(()) == (Tableau(()), Tableau(()))
    assert inverse_rsk(Tableau(((5,),)), Tableau(((1,),))) == (5,)


def test_inverse_rsk_errors():
    with pytest.raises(ShapeMismatchError):
        inverse_rsk(Tableau(((1, 2),)), Tableau(((1,), (2,))))
    with pytest.raises(QNotStandardError):
        inverse_rsk(Tableau(((1, 1),)), Tableau(((1, 1),)))
    with pytest.raises(QNotStandardError):
        inverse_rsk(Tableau(((1, 1),)), Tableau(((2, 3),)))
    p = Tableau(((1, 2), (2,)))
    with pytest.raises(ShapeMismatchError):
        inverse_rsk(p, Tableau(()))
    with pytest.raises(QNotStandardError):  # 2 twice, no 3
        inverse_rsk(p, Tableau(((1, 2), (2,))))
    with pytest.raises(QNotStandardError):  # a gap: 1, 2, 4
        inverse_rsk(p, Tableau(((1, 2), (4,))))


def test_rsk_roundtrip_exhaustive():
    for w in words_over(3, 6):
        p, q = rsk_pair(w)
        assert p.shape == q.shape
        assert inverse_rsk(p, q) == w


@given(words)
def test_rsk_roundtrip_property(w):
    p, q = rsk_pair(w)
    assert inverse_rsk(p, q) == w


@given(words)
def test_p_tableau_matches_oracle(w):
    assert p_tableau(w).rows == p_oracle(w)


@given(words)
def test_lwi_is_first_row_length(w):
    t = p_tableau(w)
    first = len(t.rows[0]) if t.rows else 0
    assert lwi(w) == first


@given(st.one_of(words, st.lists(st.integers(min_value=1, max_value=2**70), max_size=12).map(tuple)))
@example(())
@example((2**64, 2**63, 1, 2**63))
def test_first_row_is_row_one_of_the_insertion_tableau(w):
    """The one row pass of _first_row against row 1 of insertion_rows,
    with the empty word and letters up to 2^70 among the inputs."""
    rows = _kernels.insertion_rows(w)
    assert _first_row(w) == (rows[0] if rows else ())


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=10).map(tuple))
def test_lwi_matches_subset_oracle(w):
    assert lwi(w) == lwi_oracle(w)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=10).map(tuple), st.integers(1, 4))
def test_lwi_ending_at_matches_subset_oracle(w, a):
    """Against the definition: the longest weakly increasing subsequence,
    over every subset of positions, whose last letter is a."""
    subsets = (tuple(itertools.compress(w, keep)) for keep in itertools.product((0, 1), repeat=len(w)))
    expect = max((len(s) for s in subsets if s[-1:] == (a,) and list(s) == sorted(s)), default=0)
    assert lwi_ending_at(w, a) == expect


def test_lwi_long_mixed_word():
    w = (1, 6, 2, 7, 2, 4, 5, 3, 4)
    assert lwi(w) == 5
    assert lwi_ending_at(w, 3) == 4
    assert lwi_ending_at(w, 9) == 0
    assert lwi(()) == 0


def test_lwi_ending_at_uses_rightmost_occurrence():
    # the longest weakly increasing subsequence ending in 2 must end at
    # the last 2, picking up 1,2,2
    w = (2, 1, 2)
    assert lwi_ending_at(w, 2) == 2
    assert lwi_ending_at((1, 2, 2), 2) == 3


def test_p_of_row_word_is_identity():
    for n in range(0, 9):
        for lam in iter_partitions(n):
            for t in iter_ssyt(lam, 4):
                assert p_tableau(t.row_word()) == t


def test_knuth_class():
    """class_words([T.rows], |T|) lists the f^shape words with P(w) = T,
    sorted, and knuth_class(w) is the set of them for T = P(w)."""
    seen = {}
    for w in words_over(3, 5):
        t = p_tableau(w)
        if t not in seen:
            seen[t] = class_words([t.rows], t.size)
            assert len(seen[t]) == syt_count_oracle(t.shape)
            assert seen[t] == sorted(set(seen[t]))
            assert all(p_oracle(v) == t.rows for v in seen[t])
        assert w in seen[t]
        assert knuth_class(w) == set(seen[t])
    assert class_words([Tableau(()).rows], 0) == [()]
    assert class_words([((1, 3), (2,))], 3) == [(2, 1, 3), (2, 3, 1)]


def test_lemma_dominance_suite():
    """Appending a letter tightens alpha from the right, prepending from
    the left, in dominance order."""
    for w in words_over(4, 5):
        pw = p_tableau(w)
        for a in range(1, 5):
            pwa = p_tableau(w + (a,))
            paw = p_tableau((a,) + w)
            for b in range(1, 5):
                if a == b:
                    continue
                assert dominates(pwa.alpha(b), pw.alpha(b))
                assert dominates(pw.alpha(b), paw.alpha(b))

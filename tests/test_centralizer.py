import itertools

import pytest

# the membership tests are named test_* in the library, which pytest would
# otherwise try to collect; alias them on import
from plactic import (
    BadParameterError,
    BudgetExceededError,
    centralizer_words,
    count_centralizer_words,
    in_centralizer,
    is_yamanouchi,
    knuth_class,
    p_tableau,
)
from plactic import test_c1_lwi as c1_lwi
from plactic import test_c12 as c12
from plactic import test_c212 as c212
from plactic import test_single_letter_cols as single_letter_cols
from plactic import test_single_letter_rows as single_letter_rows
from plactic import test_staircase as staircase
from plactic.centralizer import DEFAULT_BUDGET, c12_columns, default_budget
from plactic.cli import cli_dispatch

from helpers import commutes_oracle, words_over


def test_in_centralizer_examples():
    assert in_centralizer((2,), (2, 1, 2))
    assert p_tableau((2, 2, 1, 2)).rows == ((1, 2, 2), (2,))
    assert not in_centralizer((2, 1, 2), (1,))
    assert in_centralizer((), (3, 1, 4))
    assert in_centralizer((3, 1, 4), ())


def test_in_centralizer_matches_independent_oracle():
    for u in words_over(3, 3):
        for w in words_over(3, 3):
            assert in_centralizer(u, w) == commutes_oracle(u, w)


def test_single_letter_rows_examples():
    assert single_letter_rows(2, (2, 1, 2))
    assert not single_letter_rows(1, (2,))
    assert single_letter_rows(3, ())


def test_single_letter_cols_examples():
    assert single_letter_cols(2, (2, 1, 2))
    assert single_letter_cols(1, (1, 1, 1))
    assert not single_letter_cols(2, (1,))
    assert single_letter_cols(7, ())


def test_c1_lwi_examples():
    assert c1_lwi((2, 1))
    assert not c1_lwi((1, 2))
    assert c1_lwi((1, 1, 1))
    assert c1_lwi(())


def test_is_yamanouchi_examples():
    assert is_yamanouchi((2, 1, 2, 1))
    assert not is_yamanouchi((1, 2, 1, 2))
    assert is_yamanouchi(())
    assert not is_yamanouchi((2,))
    assert is_yamanouchi((3, 2, 1))


def test_c12_examples():
    assert c12((2, 1, 1, 2))
    assert c12((2, 2, 1, 1))
    assert not c12((1,))
    assert c12(())


def test_c212_examples():
    assert c212((2, 2, 1, 1))
    assert not c212((1,))
    assert c212((2,))
    assert in_centralizer((2, 1, 2), (2,))


def test_staircase_examples():
    assert staircase(2, (2, 2, 1, 1))
    assert not staircase(2, (3,))
    assert staircase(1, (1, 1, 1, 1))
    assert staircase(3, ())


def test_power_examples():
    """C(a^k) = C(a): the column test for a decides membership in C(a^k)."""
    for a, w, member in ((2, (2, 1, 2), True), (1, (2,), False), (3, (), True)):
        for k in (1, 2, 3):
            assert in_centralizer((a,) * k, w) == single_letter_cols(a, w) == member


def test_characterizations_match_oracle():
    """Every fast membership test agrees with the P(uw)=P(wu) oracle for
    words over [3] up to length 5. The wider [4]-alphabet sweep lives in
    the acceptance suite."""
    for w in words_over(3, 5):
        for u in (1, 2, 3):
            expect = in_centralizer((u,), w)
            assert single_letter_rows(u, w) == expect
            assert single_letter_cols(u, w) == expect
        assert c1_lwi(w) == in_centralizer((1,), w)
        assert c12(w) == in_centralizer((1, 2), w)
        # the C(12) shape sum reads the column rule on rows 1 and 2 alone
        assert c12_columns(tuple(col[:2] for col in p_tableau(w).columns())) == c12(w)
        assert c212(w) == in_centralizer((2, 1, 2), w)
        for m in (2, 3):
            stair = tuple(range(m, 0, -1))
            assert staircase(m, w) == in_centralizer(stair, w)
        for a in (1, 2, 3):
            for k in (1, 2, 3):
                assert single_letter_cols(a, w) == in_centralizer((a,) * k, w)


def test_rows_equals_cols_always():
    for w in words_over(4, 5):
        for u in (1, 2, 3, 4, 5):
            assert single_letter_rows(u, w) == single_letter_cols(u, w)


def test_c1_equivalences():
    for w in words_over(4, 6):
        assert c1_lwi(w) == single_letter_cols(1, w)
    for w in words_over(2, 8):
        member = in_centralizer((1,), w)
        assert member == is_yamanouchi(w)
        assert member == c1_lwi(w)


def test_centralizer_is_union_of_knuth_classes():
    for u in ((1,), (1, 2), (2, 1, 2)):
        for n in range(0, 5):
            members = set(centralizer_words(u, n, 3))
            for w in members:
                assert knuth_class(w) <= members


def test_power_lemma_containment():
    """C(u) is contained in C(u^k)."""
    us = [u for u in words_over(3, 3, min_len=1)]
    ws = list(words_over(3, 5))
    for u in us:
        for w in ws:
            if not in_centralizer(u, w):
                continue
            for k in (2, 3):
                assert in_centralizer(u * k, w), (u, k, w)


def descending_run_length(u, m):
    """Length of the longest subsequence m, m-1, ... found in u."""
    need = m
    for a in u:
        if a == need:
            need -= 1
    return m - need


def test_descending_run_detection():
    assert descending_run_length((3, 1, 2, 1), 3) == 3
    assert descending_run_length((2, 3, 2, 1), 3) == 3
    assert descending_run_length((1, 2, 3), 3) == 1
    assert descending_run_length((2,), 3) == 0


def test_descending_run_caps_first_rows():
    """With m = max u: if u contains a subsequence m, m-1, ..., m-k+1 then
    every member of C(u) has max entry <= m in its first k rows."""
    ws = list(words_over(4, 4))
    for u in words_over(4, 4, min_len=1):
        m = max(u)
        k = descending_run_length(u, m)
        assert k >= 1
        for w in ws:
            if not in_centralizer(u, w):
                continue
            rows = p_tableau(w).rows
            for i in range(min(k, len(rows))):
                assert max(rows[i]) <= m, (u, w, m, k)


def test_centralizer_words_examples():
    assert centralizer_words((1,), 2, 2) == [(1, 1), (2, 1)]
    assert centralizer_words((1,), 4, 2) == [
        (1, 1, 1, 1),
        (1, 1, 2, 1),
        (1, 2, 1, 1),
        (2, 1, 1, 1),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]
    assert centralizer_words((3, 1, 2), 0, 5) == [()]


def test_yamanouchi_set_matches_c1():
    got = set(centralizer_words((1,), 4, 2))
    assert got == {w for w in itertools.product((1, 2), repeat=4) if is_yamanouchi(w)}


def test_count_matches_enumeration():
    for n in range(0, 5):
        for m in (1, 2, 3):
            assert count_centralizer_words((1, 2), n, m) == len(centralizer_words((1, 2), n, m))


def test_budget_checked_before_enumeration():
    with pytest.raises(BudgetExceededError):
        centralizer_words((1,), 10, 3, budget=100)
    with pytest.raises(BudgetExceededError):
        count_centralizer_words((1,), 10, 3, budget=100)
    # exactly at the limit is fine
    assert count_centralizer_words((1,), 2, 2, budget=4) == 2


def test_budget_refusal_of_a_total_too_long_to_print():
    """2^20000 has more digits than Python converts to a string; the
    refusal names its power of two and is still a BudgetExceeded."""
    with pytest.raises(BudgetExceededError, match=r"^words in \[2\]\^20000: at least 2\^20000, over the budget 100000000$"):
        count_centralizer_words((1,), 20000, 2, budget=10**8)
    # a total that prints keeps its decimal form
    with pytest.raises(BudgetExceededError) as info:
        count_centralizer_words((1,), 1000, 2, budget=10**8)
    assert str(info.value) == f"words in [2]^1000: {2**1000}, over the budget 100000000"


def test_negative_length_or_alphabet_is_a_value_error():
    for n, m in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            centralizer_words((1,), n, m)
        with pytest.raises(ValueError):
            count_centralizer_words((1,), n, m)


def test_default_budget_env_override(monkeypatch):
    monkeypatch.delenv("PLACTIC_BUDGET", raising=False)
    assert default_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("PLACTIC_BUDGET", "1234")
    assert default_budget() == 1234
    monkeypatch.setenv("PLACTIC_BUDGET", "50")
    with pytest.raises(BudgetExceededError):
        count_centralizer_words((1,), 4, 3)


def test_malformed_budget_env_names_the_variable(monkeypatch, capsys):
    for raw in ("abc", "1e3", "0", "-3", "-5"):
        monkeypatch.setenv("PLACTIC_BUDGET", raw)
        message = f"PLACTIC_BUDGET must be a positive integer, got '{raw}'"
        with pytest.raises(BadParameterError, match=message):
            default_budget()
        with pytest.raises(BadParameterError, match=message):
            count_centralizer_words((1,), 2, 2)
        assert cli_dispatch(["count", "1", "--len", "2", "--max", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

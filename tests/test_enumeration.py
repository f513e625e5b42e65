import tracemalloc
from itertools import islice

import pytest

from plactic import (
    BinomialPoly,
    BudgetExceededError,
    UnsupportedFamilyError,
    ValidationFailedError,
    count_by_shapes,
    count_centralizer_words as count_centralizer,
    expand_binomial,
    f_lambda,
    family_of_word,
    single,
    ssyt_count,
    staircase,
    word12,
)
from plactic.enumeration import _fit_binomial, _partition_counts, _word12_head, binom, iter_ssyt
from plactic.tableau import is_partition, iter_partitions

from helpers import hook_product, order_poly_oracle, ssyt_fillings_oracle, syt_count_oracle, word12_head_oracle


def test_binom_guards():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(0, 0) == 1


def test_iter_partitions():
    assert list(iter_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(iter_partitions(0)) == [()]
    assert len(list(iter_partitions(8))) == 22
    assert list(iter_partitions(-1)) == []
    assert list(iter_partitions(0, 0)) == [()]
    assert list(iter_partitions(3, 0)) == []


def test_iter_partitions_row_cap_filters_the_full_listing():
    """Each listing is every partition of n once, in strictly decreasing
    lexicographic order, and the capped listing is the full one filtered
    to at most k parts, for n <= 15."""
    for n, count in zip(range(0, 16), _partition_counts()):
        full = list(iter_partitions(n))
        assert all(is_partition(lam) and sum(lam) == n for lam in full)
        assert full == sorted(set(full), reverse=True)
        assert len(full) == count
        for k in range(0, n + 2):
            assert list(iter_partitions(n, k)) == [lam for lam in full if len(lam) <= k], (n, k)


def test_f_lambda_examples():
    assert f_lambda((2, 2, 1)) == 5
    assert f_lambda((7,)) == 1
    assert f_lambda((2, 1)) == 2
    assert f_lambda(()) == 1


def test_f_lambda_matches_exhaustive_generation():
    for n in range(0, 13):
        for lam in iter_partitions(n):
            assert f_lambda(lam) == syt_count_oracle(lam), lam


def test_f_lambda_cost_follows_the_answer():
    """A long row or column, and a thin hook, are counted without building
    n! or a product of n hooks (a product of 20000 hooks alone takes
    about 32 KB), so counting the one word of [1]^200000 is the fill."""
    cases = [((20000,), 1), ((1,) * 20000, 1), ((20000, 1), 20000), ((2,) + (1,) * 19999, 20000)]
    tracemalloc.start()
    try:
        counts = [f_lambda(shape) for shape, _ in cases]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [count for _, count in cases]
    assert peak < 2**12
    assert count_centralizer((1,), 200000, 1) == 1


def test_ssyt_count_edges():
    assert ssyt_count((), 0) == 1
    assert ssyt_count((), 3) == 1
    assert ssyt_count((2, 1), 0) == 0
    assert ssyt_count((1,), -3) == 0
    assert ssyt_count((2, 1), -1) == 0
    assert ssyt_count((1, 1, 1), 2) == 0
    assert ssyt_count((1,), 1) == 1


def test_ssyt_count_matches_generation_and_oracle():
    """The hook-content product counts what iter_ssyt lists on every shape
    of at most 8 cells with entries <= 6, and what raw fillings give on
    shapes of at most 5 cells with entries <= 4."""
    for n in range(0, 9):
        for lam in iter_partitions(n):
            for q in range(0, 7):
                got = ssyt_count(lam, q)
                assert got == len(list(iter_ssyt(lam, q))), (lam, q)
                if n < 6 and q < 5:
                    assert got == len(ssyt_fillings_oracle(lam, q)), (lam, q)


def test_ssyt_count_is_order_poly_shifted():
    """The hook-content product agrees with the linear-extension route of
    the paper's proof on every shape of at most 8 cells, entries <= 6."""
    for n in range(0, 9):
        for lam in iter_partitions(n):
            for q in range(0, 7):
                assert ssyt_count(lam, q) == order_poly_oracle(lam, q), (lam, q)


def test_iter_ssyt_yields_valid_tableaux():
    seen = set()
    for t in iter_ssyt((2, 1), 3):
        assert t.shape == (2, 1)
        assert t.max_entry() <= 3
        seen.add(t.rows)
    assert ((1, 1), (2,)) in seen
    assert len(seen) == 8


def test_families():
    assert single(2).constrained_rows == 1
    assert staircase(3).constrained_rows == 3
    assert word12().constrained_rows == 2
    with pytest.raises(ValueError):
        single(0)
    with pytest.raises(ValueError):
        staircase(0)


def test_family_of_word():
    assert family_of_word((1,)) == single(1)
    assert family_of_word((2, 2, 2)) == single(2)
    assert family_of_word((2, 1)) == staircase(2)
    assert family_of_word((3, 2, 1)) == staircase(3)
    assert family_of_word((1, 2)) == word12()
    with pytest.raises(UnsupportedFamilyError):
        family_of_word((2, 1, 2))
    with pytest.raises(UnsupportedFamilyError):
        family_of_word(())


def test_count_centralizer_examples():
    assert count_centralizer((1,), 4, 2) == 6
    assert count_centralizer((3,), 2, 2) == 0
    assert count_centralizer((3,), 0, 2) == 1
    assert count_centralizer((1,), 3, 3) == 6


def test_central_binomial():
    for n in range(0, 13):
        assert count_centralizer((1,), n, 2) == binom(n, n // 2)


def test_shift_invariance():
    for m in range(1, 5):
        for u in range(1, m + 1):
            for n in range(0, 6):
                assert count_centralizer((u,), n, m) == count_centralizer((1,), n, m)
    for n in range(0, 6):
        assert count_centralizer((4,), n, 3) == (1 if n == 0 else 0)


def test_power_counting():
    for a in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(0, 5):
                for m in (1, 2, 3):
                    assert count_centralizer((a,) * k, n, m) == count_centralizer((a,), n, m)


def test_two_path_agreement():
    """Shape-sum counting equals brute force on every supported family for
    n <= 5, m <= 5."""
    cases = [
        (single(1), (1,)),
        (single(2), (2,)),
        (single(3), (3,)),
        (staircase(2), (2, 1)),
        (staircase(3), (3, 2, 1)),
        (word12(), (1, 2)),
    ]
    for family, u in cases:
        for n in range(0, 6):
            for m in range(0, 6):
                assert count_by_shapes(family, n, m) == count_centralizer(u, n, m), (
                    family,
                    n,
                    m,
                )


def test_word12_head_closed_form_matches_the_listing():
    """The closed-form C(12) head count equals the listed and filtered
    fillings for every two-row shape with l1 <= 14 at caps 0, 1 and 2,
    past the n <= 5 that test_two_path_agreement reaches."""
    for l1 in range(15):
        for l2 in range(l1 + 1):
            for cap in (0, 1, 2):
                assert _word12_head(l1, l2, cap) == word12_head_oracle(l1, l2, cap), (l1, l2, cap)


def test_single_letter_above_alphabet():
    assert count_by_shapes(single(6), 0, 3) == 1
    assert count_by_shapes(single(6), 4, 3) == 0


def test_hook_content_term():
    # the (2,2,1) shape contributes 5 standard tableaux times 2*C(m,3)
    # admissible fillings when counting length-5 words commuting with 1
    assert f_lambda((2, 2, 1)) == 5
    for m in range(0, 8):
        assert ssyt_count((2, 1), m - 1) == 2 * binom(m, 3)


def test_binomial_poly_str():
    assert str(BinomialPoly((0, 1, 4, 1))) == "C(m,1) + 4*C(m,2) + C(m,3)"
    assert str(BinomialPoly((1,))) == "1"
    assert str(BinomialPoly(())) == "0"
    assert BinomialPoly((0, 1, 4, 1))(3) == 3 + 4 * 3 + 1


def test_fit_binomial_recovers_exact_coefficients():
    for coeffs in [(0, 1, 4, 1), (3, -2, 0, 7, 0, 1), (5,), ()]:
        poly = BinomialPoly(coeffs)
        # m0 = 0 and m0 = 4 sit below the degree of the second polynomial
        for m0 in (0, 4, 11):
            values = [poly(m) for m in range(m0, m0 + len(coeffs) + 2)]
            assert _fit_binomial(m0, values) == poly, (coeffs, m0)


def test_expand_examples():
    assert expand_binomial((1,), 1).coefficients == (1,)
    assert expand_binomial((1,), 4).coefficients == (0, 1, 4, 1)
    assert str(expand_binomial((1,), 4)) == "C(m,1) + 4*C(m,2) + C(m,3)"


def test_expand_leading_coefficient_is_one():
    for n in range(1, 7):
        coeffs = expand_binomial((1,), n).coefficients
        assert coeffs[-1] == 1
        assert len(coeffs) == n


def test_expand_matches_counts_on_new_points():
    """Each perfbench family's expansion at n = 4 equals the brute-force
    count from m = max(n, max(u)) on, past the sampled points."""
    for u in [(1,), (2,), (3,), (2, 1), (3, 2, 1), (1, 2)]:
        poly = expand_binomial(u, 4)
        for m in range(max(4, max(u)), 9):
            assert poly(m) == count_centralizer(u, 4, m), (u, m)


def test_expand_rejects_small_n():
    with pytest.raises(ValueError):
        expand_binomial((2, 1), 1)
    with pytest.raises(UnsupportedFamilyError):
        expand_binomial((2, 1, 2), 3)


def test_expand_validation_sample(monkeypatch):
    import plactic.enumeration as enumeration

    def not_a_polynomial(terms, max_entry):
        return 2**max_entry

    monkeypatch.setattr(enumeration, "_sum_terms", not_a_polynomial)
    with pytest.raises(ValidationFailedError):
        enumeration.expand_binomial((1,), 3)


def test_expand_past_the_old_extension_bound():
    poly = expand_binomial((1,), 12)
    assert poly.coefficients == (
        0, 1, 922, 40989, 489320, 2430620, 6017841, 7909139, 5384580, 1570644, 58785, 1
    )
    for m in (1, 2):
        assert poly(m) == count_centralizer((1,), 12, m)


def test_expand_budget_checked_before_any_shape_sum(monkeypatch):
    import plactic.enumeration as enumeration

    def no_shape_terms(family, n, cap):
        raise AssertionError("shapes were listed before the budget check")

    monkeypatch.setattr(enumeration, "_shape_terms", no_shape_terms)
    with pytest.raises(BudgetExceededError, match="shape terms"):
        enumeration.expand_binomial((1,), 100)
    # (d + 2) * p(n) = 6 * 7 shape terms for u = 1, n = 5
    with pytest.raises(BudgetExceededError):
        enumeration.expand_binomial((1,), 5, budget=41)
    monkeypatch.setenv("PLACTIC_BUDGET", "41")
    with pytest.raises(BudgetExceededError):
        enumeration.expand_binomial((1,), 5)
    monkeypatch.undo()
    assert expand_binomial((1,), 5, budget=42).coefficients == (0, 1, 8, 13, 1)


def test_expand_refusal_counts_few_partitions(monkeypatch):
    """Over the budget, the partitions are counted only up to the first k
    with (d + 2) * p(k) over it, however large n is."""
    import plactic.enumeration as enumeration

    drawn = []

    def counting():
        for p in _partition_counts():
            drawn.append(p)
            yield p

    monkeypatch.setattr(enumeration, "_partition_counts", counting)
    monkeypatch.delenv("PLACTIC_BUDGET", raising=False)
    # 10**5 + 1 shape-term lists of p(k) terms pass 10**8 at p(22) = 1002
    with pytest.raises(BudgetExceededError, match=r"c_\{100000,m\}, at least 100001 \* p\(22\): "):
        enumeration.expand_binomial((1,), 10**5)
    assert len(drawn) == 23
    drawn.clear()
    with pytest.raises(BudgetExceededError, match=r"c_\{5,m\}: 42, over the budget 41"):
        enumeration.expand_binomial((1,), 5, budget=41)
    assert len(drawn) == 6


def test_expand_lists_the_partitions_once(monkeypatch):
    """One expansion lists the partitions of n once, however many m it samples."""
    import plactic.enumeration as enumeration

    listed = []

    def counting(n, max_parts=None):
        listed.append(n)
        return iter_partitions(n, max_parts)

    monkeypatch.setattr(enumeration, "iter_partitions", counting)
    for u in [(1,), (3, 2, 1), (1, 2)]:
        listed.clear()
        expand_binomial(u, 7)
        assert listed == [7], u


def test_partition_count_matches_listing():
    counts = list(islice(_partition_counts(), 101))
    for n in range(0, 16):
        assert counts[n] == len(list(iter_partitions(n)))
    assert counts[100] == 190569292


def test_hook_product_helper_agrees():
    # sanity for the oracle itself: hook length formula on small shapes
    from math import factorial

    for n in range(0, 7):
        for lam in iter_partitions(n):
            assert factorial(n) // hook_product(lam) == syt_count_oracle(lam)

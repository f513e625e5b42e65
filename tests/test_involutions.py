import pytest
from hypothesis import given
from hypothesis import strategies as st

from plactic import (
    MaxEntryExceedsMError,
    SkewTableau,
    Tableau,
    bender_knuth,
    evacuation_m,
    rc_m,
    split_at,
    tau_m,
)
from plactic.enumeration import iter_ssyt
from plactic.tableau import iter_partitions

from helpers import split_at_oracle, tau_m_oracle, words_over


def all_tableaux(max_cells, max_entry, min_cells=0):
    out = [Tableau(())] if min_cells == 0 else []
    for n in range(max(1, min_cells), max_cells + 1):
        for lam in iter_partitions(n):
            out.extend(iter_ssyt(lam, max_entry))
    return out


def test_bender_knuth_examples():
    t = Tableau(((3, 4),))
    assert bender_knuth(t, 1) == t
    assert bender_knuth(Tableau(((1, 1, 2),)), 1).rows == ((1, 2, 2),)
    assert bender_knuth(Tableau(((1,), (2,))), 1).rows == ((1,), (2,))
    assert bender_knuth(Tableau(()), 2).rows == ()


def test_bender_knuth_mixed_row():
    # the first column locks a 1 under a 2; only the trailing 1 and 2 are free
    t = Tableau(((1, 1, 2), (2,)))
    assert bender_knuth(t, 1).rows == ((1, 1, 2), (2,))
    # with u=2 no column holds a 3, so both 2s are free and both flip
    assert bender_knuth(t, 2).rows == ((1, 1, 3), (3,))


def test_bender_knuth_involution_and_shape():
    for t in all_tableaux(6, 4):
        for u in (1, 2, 3, 4):
            s = bender_knuth(t, u)
            assert s.shape == t.shape
            assert bender_knuth(s, u) == t


def test_bender_knuth_swaps_letter_counts():
    for t in all_tableaux(5, 4):
        for u in (1, 2, 3):
            s = bender_knuth(t, u)
            flat = [v for row in t.rows for v in row]
            flat_s = [v for row in s.rows for v in row]
            assert flat_s.count(u) == flat.count(u + 1)
            assert flat_s.count(u + 1) == flat.count(u)


def column_class(u, m, max_cells):
    """SSYT with entries <= m in which every column contains a u."""
    out = []
    for t in all_tableaux(max_cells, m, min_cells=1):
        if all(u in col for col in t.columns()):
            out.append(t)
    return out


def test_bender_knuth_bijects_column_classes():
    """The u <-> u+1 swap is a bijection between the tableaux whose every
    column contains a u and those whose every column contains a u+1."""
    for m in (2, 3, 4):
        for u in range(1, m):
            src = column_class(u, m, 5)
            dst = set(t.rows for t in column_class(u + 1, m, 5))
            images = set()
            for t in src:
                image = bender_knuth(t, u)
                assert image.rows in dst, (t.rows, u, m)
                images.add(image.rows)
            assert len(images) == len(src) == len(dst)


def test_rc_m_examples():
    assert rc_m((3, 1, 1, 2, 2), 4) == (3, 3, 4, 4, 2)
    assert rc_m((1, 3, 1, 2), 2) == (1, 3, 2, 2)
    assert rc_m((), 3) == ()
    assert rc_m((5, 6), 2) == (5, 6)
    assert rc_m((1, 2, 3), 3) == (1, 2, 3)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=10).map(tuple), st.integers(min_value=1, max_value=6))
def test_rc_m_is_an_involution(w, m):
    assert rc_m(rc_m(w, m), m) == w


def test_rc_m_fixes_large_letter_positions():
    for w in words_over(4, 4):
        for m in (1, 2, 3, 4):
            out = rc_m(w, m)
            assert [i for i, a in enumerate(w) if a > m] == [
                i for i, a in enumerate(out) if a > m
            ]
            assert sorted(a for a in out if a <= m) == sorted(
                m - a + 1 for a in w if a <= m
            )


def weakly_increasing_subwords(w):
    out = set()
    for mask in range(1 << len(w)):
        sub = tuple(w[i] for i in range(len(w)) if mask >> i & 1)
        if all(x <= y for x, y in zip(sub, sub[1:])):
            out.add(sub)
    return out


def test_rc_m_preserves_weakly_increasing_subwords():
    """v is a weakly increasing subword of w exactly when rc_m(v) is one of
    rc_m(w)."""
    m = 3
    for w in words_over(3, 5):
        lhs = {rc_m(v, m) for v in weakly_increasing_subwords(w)}
        assert lhs == weakly_increasing_subwords(rc_m(w, m))


def test_evacuation_examples():
    assert evacuation_m(Tableau(((2,),)), 5).rows == ((4,),)
    assert evacuation_m(Tableau(((1, 1),)), 2).rows == ((2, 2),)
    assert evacuation_m(Tableau(((1, 2),)), 2).rows == ((1, 2),)
    assert evacuation_m(Tableau(()), 1).rows == ()


def test_evacuation_rejects_large_entries():
    with pytest.raises(MaxEntryExceedsMError):
        evacuation_m(Tableau(((1, 3),)), 2)


def test_evacuation_preserves_shape():
    for m in (1, 2, 3, 4):
        for t in all_tableaux(7, m):
            assert evacuation_m(t, m).shape == t.shape


def test_evacuation_is_an_involution():
    for m in (2, 3):
        for t in all_tableaux(6, m):
            assert evacuation_m(evacuation_m(t, m), m) == t


def test_split_at_examples():
    t = Tableau(((1, 3), (3,)))
    low, high = split_at(t, 2)
    assert low.rows == ((1,),)
    assert high.outer == (2, 1)
    assert high.inner == (1,)
    assert high.rows == ((3,), (3,))

    low, high = split_at(t, 3)
    assert low == t
    assert high == SkewTableau((), (), ())

    low, high = split_at(t, 0)
    assert low.rows == ()
    assert high.inner == ()
    assert high.rows == t.rows


def test_split_and_tau_match_the_filter_oracles():
    """The row cut gives the filter-and-glue results, outer and inner
    shapes included, on every SSYT with <= 6 cells and entries <= 5.
    tau_m builds its image unchecked, so the image is validated here, and
    tau_m is an involution on it."""
    cases = 0
    for t in all_tableaux(6, 5):
        for m in range(7):
            low, high = split_at(t, m)
            want_low, want_high = split_at_oracle(t, m)
            assert low == want_low, (t, m)
            assert (high.outer, high.inner, high.rows) == (want_high.outer, want_high.inner, want_high.rows), (t, m)
            image = tau_m(t, m)
            assert image == tau_m_oracle(t, m), (t, m)
            assert Tableau(image.rows) == image, (t, m)
            assert tau_m(image, m) == t, (t, m)
            cases += 1
    assert cases == 21_679


def test_tau_examples():
    assert tau_m(Tableau(((1, 3), (3,))), 2).rows == ((2, 3), (3,))
    assert tau_m(Tableau(((1, 1),)), 2).rows == ((2, 2),)
    assert tau_m(Tableau(((4, 5),)), 2).rows == ((4, 5),)
    assert tau_m(Tableau(()), 2).rows == ()


def test_tau_involution_and_shape():
    for m in (1, 2, 3, 4):
        for t in all_tableaux(6, 4):
            s = tau_m(t, m)
            assert s.shape == t.shape
            assert tau_m(s, m) == t


def test_tau_fixes_the_large_part():
    for t in all_tableaux(6, 4):
        for m in (1, 2, 3):
            s = tau_m(t, m)
            for (i, j, v) in split_at(t, m)[1].cells():
                assert s.entry(i, j) == v

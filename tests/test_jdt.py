import itertools
from collections import Counter

import pytest

from plactic import (
    NotAnInnerCornerError,
    SkewTableau,
    Tableau,
    in_centralizer,
    inner_corners,
    jdt_slide,
    p_tableau,
    p_via_jdt,
    rectify,
    rectify_steps,
    southwest_concat,
)
from plactic.enumeration import iter_ssyt
from plactic.tableau import iter_partitions

from helpers import rectify_lowest_corner_first


def small_tableaux(max_cells, max_entry):
    out = [Tableau(())]
    for n in range(1, max_cells + 1):
        for lam in iter_partitions(n):
            out.extend(iter_ssyt(lam, max_entry))
    return out


def test_southwest_concat_smallest():
    s = southwest_concat(Tableau(((1,),)), Tableau(((2,),)))
    assert s.outer == (2, 1)
    assert s.inner == (1,)
    assert s.entry(1, 2) == 2
    assert s.entry(2, 1) == 1


def test_southwest_concat_empty_a():
    s = southwest_concat(Tableau(()), Tableau(((1, 2), (2,))))
    assert s.is_straight()
    assert s.rows == ((1, 2), (2,))


def test_southwest_concat_wide_a():
    s = southwest_concat(Tableau(((1, 2), (2,))), Tableau(((1,),)))
    assert s.outer == (3, 2, 1)
    assert s.inner == (2,)
    assert s.rows == ((1,), (1, 2), (2,))
    assert s.entry(1, 3) == 1


def test_southwest_concat_of_two_p_tableaux():
    s = southwest_concat(p_tableau((2, 1)), p_tableau((1, 2)))
    assert s.outer == (3, 1, 1)
    assert s.inner == (1,)
    assert s.rows == ((1, 2), (1,), (2,))
    assert inner_corners(s) == [(1, 1)]


def test_jdt_slide_smallest():
    s = SkewTableau((2, 1), (1,), ((2,), (1,)))
    out = jdt_slide(s, (1, 1))
    assert out.outer == (2,)
    assert out.inner == ()
    assert out.rows == ((1, 2),)


def test_jdt_slide_east_only():
    s = SkewTableau((3,), (1,), ((1, 2),))
    out = jdt_slide(s, (1, 1))
    assert out.outer == (2,)
    assert out.rows == ((1, 2),)


def test_jdt_slide_south_only():
    s = SkewTableau((1, 1), (1,), ((), (2,)))
    out = jdt_slide(s, (1, 1))
    assert out.outer == (1,)
    assert out.rows == ((2,),)


def test_jdt_slide_rejects_non_corner():
    s = SkewTableau((2, 1), (1,), ((2,), (1,)))
    with pytest.raises(NotAnInnerCornerError):
        jdt_slide(s, (2, 1))
    with pytest.raises(NotAnInnerCornerError):
        jdt_slide(s, (1, 2))


def test_jdt_slide_rejects_corner_without_filled_neighbor():
    s = SkewTableau((1,), (1,), ((),))
    with pytest.raises(NotAnInnerCornerError):
        jdt_slide(s, (1, 1))


def test_jdt_slide_preserves_content():
    for a in small_tableaux(3, 3):
        for b in small_tableaux(2, 3):
            s = southwest_concat(a, b)
            before = Counter(v for _, _, v in s.cells())
            for hole in inner_corners(s):
                after = Counter(v for _, _, v in jdt_slide(s, hole).cells())
                assert after == before


def test_rectify_straight_is_identity():
    t = Tableau(((1, 2, 2), (3,)))
    s = SkewTableau(t.shape, (), t.rows)
    assert rectify(s) == t


def test_rectify_examples():
    assert rectify(SkewTableau((2, 1), (1,), ((2,), (1,)))).rows == ((1, 2),)
    s = southwest_concat(p_tableau((2, 1, 2)), p_tableau((2, 1, 2)))
    assert rectify(s).rows == ((1, 1, 2, 2), (2, 2))
    assert rectify(s) == p_tableau((2, 1, 2, 2, 1, 2))


def test_rectify_steps_shrink_inner():
    s = southwest_concat(p_tableau((2, 1)), p_tableau((1, 2)))
    steps = rectify_steps(s)
    assert steps[0] == s
    assert steps[-1].is_straight()
    blanks = [sum(st.inner) for st in steps]
    assert blanks == sorted(blanks, reverse=True)


def test_rectify_builds_only_the_final_state(monkeypatch):
    """rectify slides on one grid and builds a SkewTableau only for the
    result, however many slides it takes."""
    u, w = (5, 4, 3, 2, 1, 1, 2, 3, 4, 5), (3, 2, 1, 1, 2, 3)
    s = southwest_concat(p_tableau(u), p_tableau(w))
    assert sum(s.inner) >= 10
    built = []
    init = SkewTableau.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SkewTableau, "__init__", counting_init)
    assert rectify(s) == p_tableau(u + w)
    assert len(built) <= 1


def test_rectify_is_the_last_step():
    """rectify ends where rectify_steps does, and every step removes one
    blank, over all southwest concatenations of tableaux with at most 3
    cells each."""
    pool = small_tableaux(3, 3)
    for a in pool:
        for b in pool:
            s = southwest_concat(a, b)
            steps = rectify_steps(s)
            assert rectify(s) == steps[-1].to_tableau()
            assert len(steps) == sum(s.inner) + 1


def test_p_via_jdt_examples():
    assert p_via_jdt((1,), (2,)).rows == ((1, 2),)
    assert p_via_jdt((2, 1, 2), (1,)).rows == ((1, 1), (2, 2))
    assert p_via_jdt((), (2, 1, 2)) == p_tableau((2, 1, 2))
    assert p_via_jdt((), ()).rows == ()


def test_p_via_jdt_agrees_with_rsk():
    """Rectifying P(u) placed southwest of P(w) computes P(u.w), in
    rectify's corner order and lowest corner first, over all u, w on a
    3-letter alphabet with |u| + |w| <= 7."""
    for total in range(0, 8):
        for lu in range(0, total + 1):
            for u in itertools.product((1, 2, 3), repeat=lu):
                for w in itertools.product((1, 2, 3), repeat=total - lu):
                    expect = p_tableau(u + w)
                    assert p_via_jdt(u, w) == expect
                    s = southwest_concat(p_tableau(u), p_tableau(w))
                    assert rectify_lowest_corner_first(s) == expect


def test_confluence_on_small_concats():
    """The corner order never changes the rectification, over all
    southwest concatenations of tableaux with at most 4 cells each over
    [3]; in 2268 of these 5041 the two orders differ."""
    pool = small_tableaux(4, 3)
    for a in pool:
        for b in pool:
            rectify_lowest_corner_first(southwest_concat(a, b))


def row_index_counts(state, letter):
    """How many copies of ``letter`` each row of a skew state holds."""
    return tuple(sum(1 for v in row if v == letter) for row in state.rows)


def test_letters_foreign_to_u_never_change_row():
    """When w commutes with u, rectifying the southwest concatenation never
    moves a letter absent from u between rows."""
    pairs = 0
    for total in range(0, 7):
        for lu in range(0, total + 1):
            for u in itertools.product((1, 2, 3), repeat=lu):
                support = set(u)
                foreign = [b for b in (1, 2, 3) if b not in support]
                for w in itertools.product((1, 2, 3), repeat=total - lu):
                    if not in_centralizer(u, w):
                        continue
                    pairs += 1
                    if not foreign:
                        continue
                    steps = rectify_steps(southwest_concat(p_tableau(u), p_tableau(w)))
                    for before, after in zip(steps, steps[1:]):
                        for b in foreign:
                            x = row_index_counts(before, b)
                            y = row_index_counts(after, b)
                            n = max(len(x), len(y))
                            x += (0,) * (n - len(x))
                            y += (0,) * (n - len(y))
                            assert x == y, (u, w, b)
    assert pairs == 3108

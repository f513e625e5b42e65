import itertools

import pytest

from plactic._kernels import _pure

try:
    from plactic._kernels import _speedups
except ImportError:
    _speedups = None

from helpers import commutes_oracle, p_oracle, words_over

needs_speedups = pytest.mark.skipif(_speedups is None, reason="compiled backend not built")


def test_pure_insertion_matches_oracle():
    for w in words_over(3, 6):
        assert _pure.insertion_rows(w) == p_oracle(w)


def test_pure_commutes_matches_oracle():
    for u in words_over(3, 3):
        for w in words_over(3, 3):
            assert _pure.commutes(u, w) == commutes_oracle(u, w)


def test_insert_rows_continues_a_tableau():
    rows = _pure.insertion_rows((2, 1))
    assert _pure.insert_rows(rows, (2,)) == p_oracle((2, 1, 2))
    assert _pure.insert_rows((), (3, 1)) == p_oracle((3, 1))
    assert _pure.insert_rows(rows, ()) == rows


def test_count_and_words_agree():
    for n in range(0, 5):
        for m in (1, 2, 3):
            ws = _pure.commuting_words((1, 2), n, m)
            assert _pure.count_commuting((1, 2), n, m) == len(ws)
            assert ws == sorted(ws)


def test_edge_ranges():
    # n = 0: the empty word always commutes
    assert _pure.count_commuting((3, 1), 0, 5) == 1
    assert _pure.commuting_words((3, 1), 0, 5) == [()]
    # m = 0 with n > 0: no words at all
    assert _pure.count_commuting((1,), 3, 0) == 0
    assert _pure.commuting_words((1,), 3, 0) == []


def test_shard_sums():
    u = (1, 2)
    n, m = 5, 3
    total = _pure.count_commuting(u, n, m)
    space = m**n
    for parts in (2, 3, 7):
        cuts = [space * i // parts for i in range(parts + 1)]
        sharded = sum(
            _pure.count_commuting(u, n, m, start=a, stop=b) for a, b in zip(cuts, cuts[1:])
        )
        assert sharded == total


def test_shard_windows_slice_the_word_stream():
    u = (1,)
    n, m = 4, 2
    all_words = _pure.commuting_words(u, n, m)
    got = []
    for start in range(m**n):
        got.extend(_pure.commuting_words(u, n, m, start=start, stop=start + 1))
    assert got == all_words


@needs_speedups
def test_backends_agree_on_insertion():
    for w in words_over(4, 5):
        assert _speedups.insertion_rows(w) == _pure.insertion_rows(w)


@needs_speedups
def test_backends_agree_on_commutes():
    for u in words_over(3, 3):
        for w in words_over(3, 3):
            assert _speedups.commutes(u, w) == _pure.commutes(u, w)


@needs_speedups
def test_backends_agree_on_counting():
    for u in ((1,), (2, 1), (1, 2), (2, 1, 2)):
        for n in range(0, 6):
            for m in (1, 2, 3):
                assert _speedups.count_commuting(u, n, m) == _pure.count_commuting(u, n, m)


@needs_speedups
def test_backends_agree_on_word_lists():
    assert _speedups.commuting_words((1,), 4, 2) == _pure.commuting_words((1,), 4, 2)


@needs_speedups
def test_compiled_shard_sums():
    u, n, m = (2, 1, 2), 6, 3
    total = _speedups.count_commuting(u, n, m)
    cuts = [0, 100, 500, m**n]
    assert total == sum(
        _speedups.count_commuting(u, n, m, start=a, stop=b) for a, b in zip(cuts, cuts[1:])
    )


def test_huge_letters_fall_back_to_pure():
    """Letters beyond C long range must still insert correctly through the
    public wrappers."""
    from plactic import _kernels

    big = 10**19
    w = (big, 1, big + 1)
    assert _kernels.insertion_rows(w) == p_oracle(w)
    assert _kernels.commutes((big,), (big,))
    assert not _kernels.commutes((big, 1, big), (1,))
    rows = _kernels.insert_rows(((1, big),), (big - 1,))
    assert rows == p_oracle((1, big, big - 1))


def test_compiled_overflow_falls_back_to_pure(monkeypatch):
    """Every public kernel entry point retries in pure Python when the
    compiled backend overflows, as it does for letters beyond C int."""
    import importlib
    import sys
    import types

    from plactic import _kernels, count_centralizer

    def overflow(*args, **kwargs):
        raise OverflowError("Python int too large to convert to C long")

    names = ("insertion_rows", "insert_rows", "commutes", "count_commuting", "commuting_words")
    fake = types.ModuleType("plactic._kernels._speedups")
    fake.BACKEND = "cython"
    for name in names:
        setattr(fake, name, overflow)
    monkeypatch.delenv("PLACTIC_PURE", raising=False)
    monkeypatch.setitem(sys.modules, "plactic._kernels._speedups", fake)
    monkeypatch.setattr(_kernels, "_speedups", fake, raising=False)
    try:
        importlib.reload(_kernels)
        assert _kernels.BACKEND == "cython"
        big = 2**40
        w = (big, 1, big + 1)
        assert _kernels.insertion_rows(w) == _pure.insertion_rows(w)
        assert _kernels.insert_rows(((1, big),), (2,)) == _pure.insert_rows(((1, big),), (2,))
        assert _kernels.commutes((big, big), (big,))
        assert not _kernels.commutes((big,), w)
        assert _kernels.count_commuting((big, 1), 3, 2) == _pure.count_commuting((big, 1), 3, 2) == 1
        assert _kernels.commuting_words((big, 1), 2, 2) == [(1, 1)]
        assert count_centralizer((big,), 2, 2) == _pure.count_commuting((big,), 2, 2)
    finally:
        monkeypatch.undo()
        importlib.reload(_kernels)


def test_backend_name_exported():
    from plactic import BACKEND

    assert BACKEND in ("pure", "cython")

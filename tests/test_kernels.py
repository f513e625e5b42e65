import itertools
import json
import pathlib
import random
import tracemalloc
from collections import Counter

import pytest

from plactic._kernels import _pure
from plactic.centralizer import centralizer_words, in_centralizer
from plactic.enumeration import iter_ssyt
from plactic.errors import BadParameterError
from plactic.knuth import knuth_equivalent
from plactic.tableau import iter_partitions

from helpers import (
    centralizer_oracle,
    class_words,
    class_words_oracle,
    commutes_oracle,
    fill_oracle,
    insert_oracle,
    p_oracle,
    syt_count_oracle,
    words_over,
)

ENTRY_POINTS = ("insertion_rows", "commuting_tableaux")
BIG = 2**40  # beyond C int, inside C long long
HUGE = 10**19  # beyond C long long
SCAN_WORDS = ((), (1,), (2, 1), (1, 2), (2, 1, 2), (BIG, 1), (BIG, BIG))
PERFBENCH_EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _long_words():
    """Seeded words of 1000+ letters: random over small and 2^40-sized
    alphabets, strictly decreasing, and weakly increasing."""
    rng = random.Random(20241027)
    return [
        tuple(rng.randint(1, 5) for _ in range(1200)),
        tuple(rng.randint(1, 60) for _ in range(1500)),
        tuple(BIG + rng.randint(-3, 3) for _ in range(1000)),
        tuple(range(1100, 0, -1)),
        tuple(sorted(rng.randint(1, 9) for _ in range(1000))),
    ]


def test_pure_insertion_matches_oracle():
    for w in words_over(3, 6):
        assert _pure.insertion_rows(w) == p_oracle(w)


def test_pure_commutes_matches_oracle(pure_kernels):
    """Membership on the pure backend, with no C build, is the definition."""
    for u in words_over(3, 3):
        for w in words_over(3, 3):
            assert in_centralizer(u, w) == commutes_oracle(u, w)


def test_pop_undoes_push():
    """Reverse-bumping the row that a letter's insertion grew gives back
    the letter and the tableau, on every SSYT of <= 5 cells over [3]."""
    for n in range(6):
        for shape in iter_partitions(n):
            for t in iter_ssyt(shape, 3):
                for a in range(1, 5):
                    rows = [list(row) for row in t.rows]
                    r = _pure._push(rows, a)
                    assert rows == insert_oracle(t.rows, a)
                    assert [i for i, row in enumerate(rows) if len(row) > len(t.row(i + 1))] == [r]
                    assert _pure._pop(rows, r) == a
                    assert rows == [list(row) for row in t.rows]


def test_count_and_words_agree(pure_kernels):
    for n in range(0, 5):
        for m in (1, 2, 3):
            ws = centralizer_words((1, 2), n, m)
            assert pure_kernels.count_commuting((1, 2), n, m) == len(ws)
            assert ws == sorted(ws)


def test_count_words_tallies_each_shape_once(pure_kernels, monkeypatch):
    """count_words, behind count_commuting and the stability sweep's set
    sizes, sums f^shape per tableau but builds f^shape once per shape."""
    built = []
    f_lambda = pure_kernels.f_lambda
    monkeypatch.setattr(pure_kernels, "f_lambda", lambda shape: built.append(shape) or f_lambda(shape))
    assert pure_kernels.count_words([(2, 1), (3,), (2, 1), (2, 1)]) == 3 * 2 + 1
    assert sorted(built) == [(2, 1), (3,)]
    assert pure_kernels.count_words([]) == 0


def test_edge_ranges(pure_kernels):
    # n = 0: the empty word always commutes
    assert pure_kernels.count_commuting((3, 1), 0, 5) == 1
    assert _pure.commuting_tableaux((3, 1), 0, 5) == [()]
    assert centralizer_words((3, 1), 0, 5) == [()]
    # m = 0 with n > 0: no words at all
    assert pure_kernels.count_commuting((1,), 3, 0) == 0
    assert _pure.commuting_tableaux((1,), 3, 0) == []
    assert centralizer_words((1,), 3, 0) == []


def _fill_matches_oracle(commuting_tableaux, u, n, m):
    """The fill's tableaux are exactly the P(w) of the member words, in
    shape order and then row-word order, and their f^shape sum to the
    number of members."""
    members = centralizer_oracle(u, n, m)
    got = commuting_tableaux(u, n, m)
    assert set(got) == {p_oracle(w) for w in members} and len(set(got)) == len(got), (u, n, m)
    assert sum(syt_count_oracle(map(len, rows)) for rows in got) == len(members), (u, n, m)
    shapes = [tuple(map(len, rows)) for rows in got]
    assert shapes == sorted(shapes, reverse=True), (u, n, m)
    for shape in set(shapes):
        row_words = [sum(reversed(rows), ()) for rows in got if tuple(map(len, rows)) == shape]
        assert row_words == sorted(row_words), (u, n, m)


def test_pure_scan_windows_match_oracle(pure_kernels):
    """The pure scan over all of [m]^n, for n <= 4 and -1 <= m <= 3, in all
    three modes (words, member tableaux, count), against the definition
    applied to every word; centralizer_words refuses m = -1.  The word
    listing and the count are written once, over the fill, so this is
    their independent check too."""
    for u in SCAN_WORDS:
        for n in range(0, 5):
            for m in range(-1, 4):
                want = centralizer_oracle(u, n, m)
                if m < 0:
                    with pytest.raises(BadParameterError):
                        centralizer_words(u, n, m)
                else:
                    assert centralizer_words(u, n, m) == want, (u, n, m)
                _fill_matches_oracle(_pure.commuting_tableaux, u, n, m)
                assert pure_kernels.count_commuting(u, n, m) == len(want), (u, n, m)


def test_compiled_fill_matches_oracle(speedups):
    """The brute oracle is the independent check of the C fill too."""
    for u in SCAN_WORDS:
        for n in range(0, 5):
            for m in range(-1, 4):
                _fill_matches_oracle(speedups.commuting_tableaux, u, n, m)


# Edges of the pure fill's row-1 test at the top row's last cell.
ROW_ONE_EDGES = [
    *[((), n, m) for n in (1, 2, 5) for m in (1, 3)],  # the state is empty at a one-cell leaf
    ((5,), 3, 2), ((4, 1, 6), 4, 3), ((3, 3, 1), 3, 2), ((BIG, 2), 4, 2),  # letters of u above m
    ((1,), 1, 1), ((2,), 1, 1), ((2, 1), 1, 1), ((1,), 1, 4),  # m = 1 and n = 1
    ((1, 1, 2), 6, 1), ((2, 1), 6, 1), ((1, 2, 2), 5, 2), ((2, 1, 2), 6, 2),  # one-row shapes first
]


@pytest.mark.parametrize("u, n, m", ROW_ONE_EDGES)
def test_fill_row_one_test_edges(speedups, u, n, m):
    """Both fills reject most values of the last cell on row 1 alone; at
    the edges of that test they still list the definition's member
    tableaux, and the same ones."""
    _fill_matches_oracle(_pure.commuting_tableaux, u, n, m)
    assert _pure.commuting_tableaux(u, n, m) == speedups.commuting_tableaux(u, n, m)


def _column_one_insert(column, x):
    """Column 1 of x -> T from column 1 of T: x replaces the smallest
    entry >= x, or goes at the foot.  Entries are (letter, tag) pairs,
    compared by letter; returns the new column and the entry that left."""
    k = next((k for k, (y, _) in enumerate(column) if y >= x[0]), None)
    if k is None:
        return column + [x], None
    return column[:k] + [x] + column[k + 1 :], column[k]


def test_column_one_of_p_from_the_left():
    """Column 1 of P(x w) is column 1 of P(w) after column-inserting x,
    the fact behind the column rule (P(x w) = x -> P(w))."""
    for w in words_over(3, 5):
        column = [(row[0], None) for row in p_oracle(w)]
        for x in range(1, 5):
            want = [row[0] for row in p_oracle((x,) + w)]
            assert [y for y, _ in _column_one_insert(column, (x, None))[0]] == want, (x, w)


def _bump_rules(u, t):
    """The fill's two bump rules on T = t and u, each in full and in the
    cheapest form the fill uses, as four booleans.  Row rule: the entries
    of row 1 of T that inserting u bumps out of it are letters of u, as a
    multiset; the first of them, the leftmost entry > u[0], is one.  Column
    rule: the column-1 entries of T that column-inserting u[-1], ..., u[0]
    displaces are letters of u, as a multiset; the first of them, the
    smallest column-1 entry >= u[-1], is one.  Entries are tagged by
    origin, so a letter of u that leaves again is not counted."""
    top = t[0] if t else ()
    row = [(y, "T") for y in top]
    bumped = []
    for a in u:
        k = next((k for k, (y, _) in enumerate(row) if y > a), None)
        if k is None:
            row.append((a, "u"))
        else:
            row[k], (b, origin) = (a, "u"), row[k]
            if origin == "T":
                bumped.append(b)
    column = [(r[0], "T") for r in t]
    displaced = []
    for a in reversed(u):
        column, left = _column_one_insert(column, (a, "u"))
        if left is not None and left[1] == "T":
            displaced.append(left[0])
    first_column = [r[0] for r in t]

    def within(xs, ys):
        return not Counter(xs) - Counter(ys)

    first_above = next((y for y in top if y > u[0]), None) if u else None
    first_at_least = min((y for y in first_column if y >= u[-1]), default=None) if u else None
    return (
        within(bumped, u),
        first_above is None or first_above in u,
        within(displaced, u),
        first_at_least is None or first_at_least in u,
    )


def test_members_satisfy_the_bump_rules():
    """Every member of C(u) in [m]^n satisfies both rules, by the
    definition applied to every word; and each cheapest form turns some
    non-member away, so the rules are not empty."""
    rejected = Counter()
    for u in words_over(3, 3, min_len=1):
        for n in range(1, 6):
            for w in itertools.product(range(1, 4), repeat=n):
                rules = _bump_rules(u, p_oracle(w))
                if commutes_oracle(u, w):
                    assert all(rules), (u, w, rules)
                else:
                    rejected.update(i for i, ok in enumerate(rules) if not ok)
    assert rejected[1] > 0 and rejected[3] > 0, rejected


def _fill_cases():
    """u over [4]^<=3 with n <= 6 and m <= 5; seeded random u of up to six
    letters over [5], with repeats; u = () and u = (2^40, 1)."""
    cases = [(u, n, m) for u in words_over(4, 3) for n in range(7) for m in range(-1, 6)]
    rng = random.Random(20261019)
    for _ in range(120):
        u = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 6)))
        cases.append((u, rng.randint(0, 6), rng.randint(1, 5)))
    cases += [(u, n, m) for u in ((), (BIG, 1), (3, 3, 1, 1, 2, 2)) for n in range(7) for m in range(1, 5)]
    return cases


def test_pruned_fills_list_the_unpruned_fill(speedups):
    """Both backends' fills, pruned by the bump rules and the row-1 test,
    list exactly the tableaux of the unpruned backtracking fill, in its
    order."""
    for u, n, m in _fill_cases():
        want = fill_oracle(u, n, m)
        assert _pure.commuting_tableaux(u, n, m) == want, (u, n, m)
        assert speedups.commuting_tableaux(u, n, m) == want, (u, n, m)


def test_pruned_fills_at_the_benchmark_jobs(capsys, speedups, monkeypatch):
    """Every fill that a sweep or scan job of perfbench/expected.json asks
    for, on both backends, against the unpruned fill."""
    from plactic import _kernels
    from plactic.cli import cli_dispatch

    expected = json.loads(PERFBENCH_EXPECTED.read_text())
    asked = set()
    real = _kernels.commuting_tableaux

    def recorded(u, n, m):
        asked.add((tuple(u), n, m))
        return real(u, n, m)

    monkeypatch.setattr(_kernels, "commuting_tableaux", recorded)
    for workload in ("sweep", "scan"):
        for key in expected[workload]:
            assert cli_dispatch(key.split()) == 0, key
    capsys.readouterr()
    assert {(9, 4), (10, 3), (7, 5), (8, 4)} <= {(n, m) for u, n, m in asked}
    assert len(asked) > 100
    for u, n, m in sorted(asked):
        want = fill_oracle(u, n, m)
        assert _pure.commuting_tableaux(u, n, m) == want, (u, n, m)
        assert speedups.commuting_tableaux(u, n, m) == want, (u, n, m)


def test_row_one_tests_at_the_last_cell(monkeypatch):
    """The bump rules, also in the last-cell loop, leave the pure fill one
    row-1 test per member tableau for u = 1, n = 9, m = 4, and 596 for
    u = 21, where it made 3,740 for each without them; and 269 for
    u = (2^40, 1), n = 8, m = 3, where only the column rule at the top
    row's first cell fires (294 without it)."""
    tests = []
    real = _pure._row_pass
    monkeypatch.setattr(_pure, "_row_pass", lambda row, letters: tests.append(1) or real(row, letters))
    for u, n, m, want in (((1,), 9, 4, 138), ((2, 1), 9, 4, 596), ((BIG, 1), 8, 3, 269)):
        tests.clear()
        found = _pure.commuting_tableaux(u, n, m)
        assert len(tests) == want >= len(found), (u, n, m)
    assert len(_pure.commuting_tableaux((1,), 9, 4)) == 138


def test_membership_depends_on_the_insertion_tableau_alone():
    """The pure scan tests one word per insertion tableau; words with equal
    P(w) must therefore agree on membership."""
    for u in ((1,), (2,), (2, 1), (1, 2), (2, 1, 2), (3, 1, 2), (1, 3, 2, 1)):
        verdict = {}
        for w in words_over(3, 5):
            assert verdict.setdefault(p_oracle(w), commutes_oracle(u, w)) == commutes_oracle(u, w), (u, w)


def test_pure_count_memory_is_linear(pure_kernels):
    """The count keeps one tableau P(u) <- (row word so far), so m = 1,
    where the word budget passes any n, stays small at n = 1000."""
    tracemalloc.start()
    try:
        assert pure_kernels.count_commuting((1,), 1000, 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_backends_expose_the_two_entry_points(speedups):
    from plactic import _kernels

    for module in (_kernels, _pure, speedups):
        for name in ENTRY_POINTS:
            assert callable(getattr(module, name)), (module, name)
        # membership is same_insertion, written once in _kernels, and
        # words are listed only through class_blocks
        for name in ("commutes", "insert_rows", "commuting_words", "class_words"):
            assert not hasattr(module, name), (module, name)
    # counting the words is written once, over the tableau fill, and
    # P(x) == P(y) once, over insertion_rows
    for name in ("count_commuting", "same_insertion", "class_blocks"):
        assert callable(getattr(_kernels, name))
        assert not hasattr(_pure, name)
        assert not hasattr(speedups, name)
    assert speedups.BACKEND == "c"


def test_backends_agree_on_insertion(speedups):
    for w in words_over(4, 5):
        assert speedups.insertion_rows(w) == _pure.insertion_rows(w)
    for w in [(BIG, 1, BIG + 1, 3, BIG), (-BIG, 0, BIG, -1)] + _long_words():
        assert speedups.insertion_rows(w) == _pure.insertion_rows(w) == p_oracle(w)


def test_backends_agree_on_commutes(reload_kernels):
    """in_centralizer and knuth_equivalent give the same answers on both
    backends, on short words against the definition and on seeded
    1000-1500-letter words, letters up to 2^40 and u == w."""
    short = [(u, w) for u in words_over(3, 3) for w in words_over(3, 3)]
    long = _long_words()
    us = long[:3] + [(BIG, 1, BIG), (1,), ()]
    pairs = [(u, w) for u in us for w in long[:1] + [(BIG,), (1, 2), ()]]
    want = [commutes_oracle(u, w) for u, w in short]
    equivalent = [p_oracle(u) == p_oracle(w) for u, w in short]
    verdicts = []
    for pure_env, backend in (("1", "pure"), (None, "c")):
        assert reload_kernels(pure_env).BACKEND == backend
        assert [in_centralizer(u, w) for u, w in short] == want, backend
        assert [knuth_equivalent(u, w) for u, w in short] == equivalent, backend
        assert all(in_centralizer(u, u) for u in us), backend
        verdicts.append([(in_centralizer(u, w), knuth_equivalent(u + w, w + u)) for u, w in pairs])
    assert verdicts[0] == verdicts[1]


def _row_word(rows):
    return tuple(a for row in reversed(rows) for a in row)


def test_same_insertion_matches_the_oracle(reload_kernels):
    """same_insertion(x, y) is P(x) == P(y) on both backends: every pair of
    words in [3]^<=4, and seeded 1000-1500-letter words with letters up to
    2^40 and beyond C long long, each against itself, its row word (equal
    P, so the full insertion runs and says True), a word with the same
    first row but other letters (the full insertion says False) and the
    next word."""
    short = list(words_over(3, 4))
    p_short = [p_oracle(x) for x in short]
    rng = random.Random(20261019)
    long = _long_words() + [tuple(HUGE + rng.randint(-3, 3) for _ in range(1000))]
    pairs = []
    for i, w in enumerate(long):
        # after (b, 1) row 1 is (1,) for every b > 1, so both words below
        # share their first rows and differ in content
        pairs += [(w, w), (w, _row_word(p_oracle(w))), ((2, 1) + w, (3, 1) + w), (w, long[i - 1])]
    oracle = {x: p_oracle(x) for x in {x for pair in pairs for x in pair}}
    want = [oracle[x] == oracle[y] for x, y in pairs]
    assert want.count(True) == 2 * len(long)
    for pure_env, backend in (("1", "pure"), (None, "c")):
        _kernels = reload_kernels(pure_env)
        assert _kernels.BACKEND == backend
        for x, px in zip(short, p_short):
            assert [_kernels.same_insertion(x, y) for y in short] == [px == py for py in p_short], (backend, x)
        assert [_kernels.same_insertion(x, y) for x, y in pairs] == want, backend


def test_same_insertion_inserts_only_when_the_first_rows_agree(pure_kernels, monkeypatch):
    """Equal words and words whose first rows differ are settled without
    insertion_rows: a random 1000+1000 pair and a (w w, w) pair make no
    call.  A pair with equal first rows makes two."""
    insertion_rows = _pure.insertion_rows
    calls = []

    def counted(w):
        calls.append(len(w))
        return insertion_rows(w)

    monkeypatch.setattr(_pure, "insertion_rows", counted)
    rng = random.Random(7)
    u, w = (tuple(rng.randint(1, 100) for _ in range(1000)) for _ in range(2))
    assert not in_centralizer(u, w) and calls == []
    assert in_centralizer(w + w, w) and calls == []
    assert in_centralizer((1,), (2, 1)) and calls == [3, 3]  # 121 and 211: row 1 is 11
    calls.clear()
    assert not knuth_equivalent((2, 1) + w, (3, 1) + w) and calls == [1002, 1002]
    calls.clear()
    assert knuth_equivalent(w, _row_word(p_oracle(w))) and calls == [1000, 1000]


def test_backends_agree_on_counting(reload_kernels):
    cases = [(u, n, m) for u in SCAN_WORDS for n in range(0, 7) for m in range(-1, 5)]
    cases += [(u, 2, 3) for u in _long_words()[:2]]
    pure = reload_kernels("1")
    want = [pure.count_commuting(*case) for case in cases]
    compiled = reload_kernels(None)
    assert compiled.BACKEND == "c"
    assert [compiled.count_commuting(*case) for case in cases] == want


def test_backends_agree_on_tableaux(speedups):
    for u in SCAN_WORDS:
        for n in range(0, 7):
            for m in range(-1, 5):
                assert speedups.commuting_tableaux(u, n, m) == _pure.commuting_tableaux(u, n, m), (u, n, m)
    for u in _long_words()[:2]:
        assert speedups.commuting_tableaux(u, 2, 3) == _pure.commuting_tableaux(u, 2, 3)
    assert speedups.commuting_tableaux((1,), 1000, 1) == _pure.commuting_tableaux((1,), 1000, 1) == [((1,) * 1000,)]


def test_backends_agree_on_word_lists(reload_kernels):
    cases = [(u, n, m) for u in SCAN_WORDS for n in range(0, 7) for m in range(0, 5)]
    cases.append((_long_words()[1], 2, 3))
    assert reload_kernels("1").BACKEND == "pure"
    want = [centralizer_words(*case) for case in cases]
    assert reload_kernels(None).BACKEND == "c"
    assert [centralizer_words(*case) for case in cases] == want


def test_word_lists_match_their_tableaux(compiled_kernels):
    """Beyond the brute-force range: the word list is strictly increasing,
    as long as the count, and its insertion tableaux are the member
    tableaux."""
    for u in SCAN_WORDS:
        for n in range(5, 9):
            for m in range(1, 5):
                words = centralizer_words(u, n, m)
                assert all(v < w for v, w in zip(words, words[1:])), (u, n, m)
                assert len(words) == compiled_kernels.count_commuting(u, n, m), (u, n, m)
                tableaux = set(compiled_kernels.commuting_tableaux(u, n, m))
                assert set(map(compiled_kernels.insertion_rows, words)) == tableaux, (u, n, m)


@pytest.mark.parametrize("backend", ["pure_kernels", "compiled_kernels"])
def test_word_listing_memory_is_linear(backend, request):
    """The listing keeps two levels of tableaux and integer edges, not one
    prefix tableau per position, so m = 1, where the word budget passes
    any n, stays small at n = 1000 (the odometers it replaced peaked at
    3.9 MiB in pure and 23 MiB in C)."""
    kernels = request.getfixturevalue(backend)
    tracemalloc.start()
    try:
        assert centralizer_words((1,), 1000, 1) == [(1,) * 1000]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_split_walk_lists_the_letter_walk(reload_kernels):
    """The joined blocks over each backend's member tableaux, and over single
    tableaux, is the list of the letter-by-letter walk it replaced, and
    its blocks' prefixes all have the one split length."""
    from plactic._kernels import _path_totals, _reverse_edges, _split_level

    for pure_env in ("1", None):
        kernels = reload_kernels(pure_env)
        for u in SCAN_WORDS[:5]:
            for n in range(0, 8):
                for m in range(0, 5):
                    tableaux = kernels.commuting_tableaux(u, n, m)
                    assert class_words(tableaux, n) == class_words_oracle(tableaux, n), (u, n, m)
                    if tableaux:
                        h = _split_level(*_path_totals(_reverse_edges(tableaux, n), len(tableaux)))
                        assert {len(p) for p, _ in kernels.class_blocks(tableaux)} == {h}
    for w in words_over(3, 6):
        rows = p_oracle(w)
        assert class_words([rows], len(w)) == class_words_oracle([rows], len(w)), w


def test_path_totals_count_prefixes_and_suffixes():
    """prefixes[k] counts the distinct k-letter prefixes of the listed
    words and suffixes[k] the distinct pairs (P(prefix), rest), the paths
    through level k; the edge count is the number of distinct
    (P(w[:k]), w[k]) steps."""
    from plactic import _kernels

    for u in SCAN_WORDS[:5]:
        for n in range(0, 7):
            tableaux = _pure.commuting_tableaux(u, n, 3)
            if not tableaux:
                continue  # class_blocks yields nothing without counting
            words = centralizer_oracle(u, n, 3)
            prefixes, suffixes, count = _kernels._path_totals(_kernels._reverse_edges(tableaux, n), len(tableaux))
            assert prefixes == [len({w[:k] for w in words}) for k in range(n + 1)], (u, n)
            assert suffixes == [len({(p_oracle(w[:k]), w[k:]) for w in words}) for k in range(n + 1)], (u, n)
            assert count == len({(k, p_oracle(w[:k]), w[k]) for w in words for k in range(n)}), (u, n)


def test_split_level_bounds_the_suffix_tables():
    """A class of one word (one row, or one column) is walked to h = n,
    and at the level picked the suffix tables never hold more entries than
    there are edges: over the member tableaux of a grid, and over two
    large cases whose cheapest levels are above that bound."""
    from plactic import _kernels

    def split(tableaux, n):
        prefixes, suffixes, count = _kernels._path_totals(_kernels._reverse_edges(tableaux, n), len(tableaux))
        h = _kernels._split_level(prefixes, suffixes, count)
        assert (1 if n else 0) <= h <= n
        assert h == n or suffixes[h] <= count, (n, h, suffixes, count)
        return h

    for n in range(0, 12):
        assert split([((1,) * n,)] if n else [()], n) == n
        assert split([tuple((a,) for a in range(1, n + 1))], n) == n
    assert split([((1,) * 1000,)], 1000) == 1000
    for u in SCAN_WORDS[:5]:
        for n in range(0, 9):
            for m in range(1, 5):
                tableaux = _pure.commuting_tableaux(u, n, m)
                if tableaux:
                    split(tableaux, n)
    # With u = () the letter count is least at h = 6 for (8, 4) and at
    # h = 7 for (9, 5), whose tables exceed the edges.
    assert split(_pure.commuting_tableaux((), 8, 4), 8) == 7
    assert split(_pure.commuting_tableaux((), 9, 5), 9) == 8


def test_split_level_from_running_sums():
    """_split_level against the cost written out for every allowed h."""
    from plactic._kernels import _split_level

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 9)
        prefixes = sorted(rng.randint(1, 50) for _ in range(n + 1))
        suffixes = sorted((rng.randint(1, 50) for _ in range(n + 1)), reverse=True)
        edges = rng.randint(1, 60)

        def cost(h):
            return (sum(prefixes[1 : h + 1]) + (h + 1) * prefixes[h]
                    + sum((n - k + 1) * suffixes[k] for k in range(h, n)))

        allowed = [h for h in range(1, n) if all(suffixes[k] <= edges for k in range(h, n))] + [n]
        least = min(cost(h) for h in allowed)
        assert _split_level(prefixes, suffixes, edges) == max(h for h in allowed if cost(h) == least)


def test_backends_reject_negative_length(speedups):
    from plactic import _kernels

    scans = [_kernels.count_commuting]
    for backend in (_pure, speedups):
        scans.append(backend.commuting_tableaux)
    for scan in scans:
        with pytest.raises(ValueError):
            scan((1,), -1, 2)


def test_scans_take_u_n_m_only(speedups):
    """The scans cover all of [m]^n: both backends take u, n and m, also by
    keyword, and nothing else."""
    from plactic import _kernels

    assert _kernels.count_commuting(u=(1,), n=3, m=2) == 3
    for backend in (_kernels, _pure, speedups):
        assert backend.commuting_tableaux(u=(1,), n=2, m=2) == [((1, 1),), ((1,), (2,))]
    for backend in (_kernels, _pure, speedups):
        scans = [backend.commuting_tableaux]
        if backend is _kernels:
            scans += [backend.count_commuting]
        for scan in scans:
            with pytest.raises(TypeError):
                scan((1,), 2, 2, start=0)
            with pytest.raises(TypeError):
                scan((1,), 2, 2, 0, None)


def test_compiled_memory_is_near_linear(compiled_kernels, speedups):
    """Row r of an N-cell tableau is sized N/(r+1), not N, so a 3000-letter
    strictly decreasing word (one column of 3000 rows) stays far under the
    stride^2 cells a square tableau buffer would take."""
    w = tuple(range(3000, 0, -1))
    for call in (lambda: speedups.insertion_rows(w), lambda: in_centralizer(w, (1,))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_compiled_count_memory_is_linear(compiled_kernels):
    """The C fill keeps one tableau P(u) <- (row word so far), so the count
    at m = 1, where the word budget passes any n, stays small at n = 1000
    (the odometer it replaced kept n prefix tableaux: 23 MiB)."""
    tracemalloc.start()
    try:
        assert compiled_kernels.count_commuting((1,), 1000, 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_letters_fall_back_to_pure(compiled_kernels):
    """Letters beyond C long long range must still give correct results
    through the public wrappers over the C backend."""
    _kernels = compiled_kernels
    assert _kernels.BACKEND == "c"
    w = (HUGE, 1, HUGE + 1)
    assert _kernels.insertion_rows(w) == p_oracle(w)
    assert in_centralizer((HUGE,), (HUGE,))
    assert not in_centralizer((HUGE, 1, HUGE), (1,))
    assert _kernels.count_commuting((HUGE,), 3, 2) == len(centralizer_oracle((HUGE,), 3, 2))
    members = centralizer_oracle((HUGE, 1), 3, 2)
    assert set(_kernels.commuting_tableaux((HUGE, 1), 3, 2)) == {p_oracle(w) for w in members}
    assert centralizer_words((HUGE, 1), 2, 2) == centralizer_oracle((HUGE, 1), 2, 2)


def test_compiled_overflow_falls_back_to_pure(compiled_kernels, speedups, monkeypatch):
    """The C module raises OverflowError for letters beyond C long long and
    keeps 2^40 in C; every public entry point retries the overflow in pure
    Python."""
    from plactic import count_centralizer_words

    _kernels = compiled_kernels
    pure = {name: getattr(_pure, name) for name in ENTRY_POINTS}
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return pure[name](*args, **kwargs)

        return call

    for name in ENTRY_POINTS:
        monkeypatch.setattr(_pure, name, counted(name))
    args = {
        "insertion_rows": lambda a: ((a, 1, a + 1),),
        "commuting_tableaux": lambda a: ((a, 1), 3, 2),
    }
    for name in ENTRY_POINTS:
        assert getattr(_kernels, name)(*args[name](BIG)) == getattr(speedups, name)(*args[name](BIG))
    assert calls == []
    for name in ENTRY_POINTS:
        with pytest.raises(OverflowError):
            getattr(speedups, name)(*args[name](HUGE))
        calls.clear()
        assert getattr(_kernels, name)(*args[name](HUGE)) == pure[name](*args[name](HUGE))
        assert calls[0] == name
    # membership retries each insertion through insertion_rows' wrapper;
    # uw == wu and first rows that differ are settled before any insertion
    calls.clear()
    assert in_centralizer((BIG, BIG), (BIG,)) and calls == []
    assert in_centralizer((HUGE, HUGE), (HUGE,))
    assert not in_centralizer((HUGE, 1, HUGE), (1,))
    assert calls == []
    assert in_centralizer((HUGE,), (HUGE, 1))  # H H 1 and H 1 H: row 1 is 1 H
    assert not in_centralizer((HUGE, 1), (2, 1))  # H 1 2 1 and 2 1 H 1: row 1 is 1 1
    assert calls == ["insertion_rows"] * 4
    # the word listing retries through the fill's wrapper
    calls.clear()
    assert centralizer_words((HUGE, 1), 2, 2) == [(1, 1)]
    assert calls[0] == "commuting_tableaux"
    assert count_centralizer_words((HUGE,), 2, 2) == len(centralizer_oracle((HUGE,), 2, 2))


def test_only_plactic_pure_1_forces_pure(reload_kernels):
    assert reload_kernels("0").BACKEND == "c"
    assert reload_kernels("").BACKEND == "c"
    assert reload_kernels("1").BACKEND == "pure"
    assert reload_kernels(None).BACKEND == "c"


def test_backend_name_exported():
    from plactic import BACKEND

    assert BACKEND in ("pure", "c")

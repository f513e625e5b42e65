import pytest

from plactic import (
    BadShapeError,
    ColumnNotStrictlyIncreasingError,
    RowNotWeaklyIncreasingError,
    PlacticError,
    SkewTableau,
    Tableau,
    TableauError,
    TableauParseError,
    WordParseError,
    dominates,
    format_tableau,
    format_word,
    parse_tableau,
    parse_word,
    word,
)
from plactic.tableau import row_count_filter

# a mid-sized SSYT with a ragged shape, used as a fixed fixture
SAMPLE = ((1, 1, 1, 3, 4, 4), (2, 3, 3, 4, 5), (3, 5, 5), (4,))


def test_sample_tableau_valid():
    t = Tableau(SAMPLE)
    assert repr(t) == f"Tableau({[list(r) for r in SAMPLE]!r})"
    assert str(t) == "[1,1,1,3,4,4]\n[2,3,3,4,5]\n[3,5,5]\n[4]"
    assert t.shape == (6, 5, 3, 1)
    assert t.size == 15
    assert t.row_word() == (4, 3, 5, 5, 2, 3, 3, 4, 5, 1, 1, 1, 3, 4, 4)
    assert t.alpha(4) == (2, 1, 0, 1)
    assert t.alpha(9) == (0, 0, 0, 0)


def test_empty_tableau():
    t = Tableau(())
    assert t.shape == ()
    assert t.size == 0
    assert t.row_word() == ()
    assert not t


def test_column_violation_names_cell():
    with pytest.raises(ColumnNotStrictlyIncreasingError) as err:
        Tableau(((1, 2), (1,)))
    assert err.value.cell == (2, 1)


def test_row_violation_names_cell():
    with pytest.raises(RowNotWeaklyIncreasingError) as err:
        Tableau(((2, 1),))
    assert err.value.cell == (1, 2)


def test_bad_shape():
    with pytest.raises(BadShapeError):
        Tableau(((1,), (1, 2)))
    with pytest.raises(BadShapeError):
        Tableau(((1,), ()))
    with pytest.raises(BadShapeError):
        Tableau(((0, 1),))


def test_rows_immutable():
    t = Tableau(((1,),))
    with pytest.raises(AttributeError):
        t.rows = ((2,),)


def test_entry_and_row_are_one_based():
    t = Tableau(SAMPLE)
    assert t.entry(1, 1) == 1
    assert t.entry(4, 1) == 4
    assert t.entry(2, 5) == 5
    assert t.row(3) == (3, 5, 5)
    assert t.row(9) == ()


def test_columns():
    t = Tableau(((1, 2), (2,)))
    assert t.columns() == ((1, 2), (2,))
    assert Tableau(()).columns() == ()


def test_word_validation():
    assert word([1, 2]) == (1, 2)
    assert word(()) == ()
    with pytest.raises(ValueError):
        word((0,))
    with pytest.raises(ValueError):
        word((1, -2))
    with pytest.raises(ValueError):
        word((True,))


def test_parse_word_forms():
    assert parse_word("2,1,2") == (2, 1, 2)
    assert parse_word("212") == (2, 1, 2)
    assert parse_word("") == ()
    assert parse_word("10,2") == (10, 2)
    assert parse_word("12,") == (12,)
    assert parse_word("1,2,") == (1, 2)
    with pytest.raises(ValueError):
        parse_word("102")  # bare digits cannot contain 0
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_parse_word_names_the_bad_letter():
    for text, part in ((",", "''"), ("1,,2", "''"), ("12,,", "''"), ("1,x", "'x'"), ("2,1,0", "'0'"), ("3,-1", "'-1'")):
        with pytest.raises(WordParseError, match=part) as info:
            parse_word(text)
        assert isinstance(info.value, ValueError)
    with pytest.raises(WordParseError, match="'102'"):
        parse_word("102")
    with pytest.raises(WordParseError, match="'ab'"):
        parse_word("ab")


def test_format_word_roundtrip():
    for w in [(), (1,), (2, 1, 2), (10, 3, 12), (12,), (10**19,)]:
        assert parse_word(format_word(w)) == w
    assert format_word((12,)) == "12,"
    assert format_word((9,)) == "9"


def test_parse_format_tableau_roundtrip():
    t = Tableau(SAMPLE)
    assert parse_tableau(format_tableau(t)) == t
    assert format_tableau(Tableau(((1, 2), (2,)))) == "[1,2]\n[2]"


def test_parse_tableau_names_the_bad_row_and_cell():
    with pytest.raises(TableauParseError, match="row 1") as exc:
        parse_tableau("[1,a]")
    assert exc.value.cell == (1, 2)
    with pytest.raises(TableauParseError, match="row 2") as exc:
        parse_tableau("[1,2]\n\n3")
    assert exc.value.cell is None
    with pytest.raises(TableauParseError, match="row 1"):
        parse_tableau("1,2")
    assert issubclass(TableauParseError, TableauError)
    assert issubclass(TableauParseError, PlacticError)
    assert issubclass(TableauParseError, ValueError)


def test_dominates_examples():
    assert dominates((1, 1), (2, 0))
    assert not dominates((2, 0), (1, 1))
    assert dominates((), ())
    # unequal lengths compare by padding with zeros
    assert dominates((1,), (1, 0, 0))


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_dominates_is_a_partial_order_on_equal_sums():
    for total in range(0, 7):
        comps = [c for parts in range(0, 4) for c in _compositions(total, parts)]
        for a in comps:
            assert dominates(a, a)
            for b in comps:
                if dominates(a, b) and dominates(b, a):
                    # antisymmetry up to trailing zeros
                    la = max(len(a), len(b))
                    assert tuple(a) + (0,) * (la - len(a)) == tuple(b) + (0,) * (la - len(b))
                for c in comps:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


def test_row_count_filter():
    row = (2, 3, 3)
    assert row_count_filter(row, 3, strict=False) == 3
    assert row_count_filter(row, 3, strict=True) == 1
    assert row_count_filter((2, 2), 2, strict=True) == 0
    assert row_count_filter((2, 2), 2, strict=False) == 2
    assert row_count_filter((), 5, strict=False) == 0


def test_row_count_filter_identity():
    rows = [(1, 1, 2, 3), (2, 2), (), (1, 4, 4, 4)]
    for row in rows:
        for u in range(1, 6):
            strict = row_count_filter(row, u, strict=True)
            weak = row_count_filter(row, u, strict=False)
            assert strict + row.count(u) == weak


def test_alpha_sums_to_cell_count():
    for t in [Tableau(SAMPLE), Tableau(()), Tableau(((1, 2), (2,)))]:
        letters = set(v for row in t.rows for v in row)
        total = sum(sum(t.alpha(b)) for b in letters)
        assert total == t.size


def test_skew_tableau_basic():
    s = SkewTableau((2, 1), (1,), ((2,), (1,)))
    assert s.size == 2
    assert s.entry(1, 2) == 2
    assert s.entry(2, 1) == 1
    assert s.entry(1, 1) is None
    assert s.entry(3, 1) is None
    assert not s.is_straight()
    assert hash(s) == hash(SkewTableau((2, 1), (1,), ((2,), (1,))))
    assert repr(s) == "SkewTableau(outer=(2, 1), inner=(1,), rows=[[2], [1]])"
    with pytest.raises(AttributeError):
        s.rows = ((1,), (1,))


def test_skew_inner_trailing_zeros_stripped():
    s = SkewTableau((2, 1), (1, 0), ((3,), (3,)))
    assert s.inner == (1,)


def test_skew_straight_conversion():
    s = SkewTableau((2, 1), (), ((1, 2), (2,)))
    assert s.is_straight()
    assert s.to_tableau() == Tableau(((1, 2), (2,)))
    with pytest.raises(ValueError):
        SkewTableau((2, 1), (1,), ((2,), (1,))).to_tableau()


def test_skew_validation():
    with pytest.raises(ValueError):
        SkewTableau((1, 2), (), ((1,), (1, 2)))  # outer not a partition
    with pytest.raises(BadShapeError, match="inner shape"):
        SkewTableau((2, 2), (1, 2), ((1,), ()))
    with pytest.raises(BadShapeError, match="more rows"):
        SkewTableau((2,), (1, 1), ((1,),))
    with pytest.raises(BadShapeError, match="one entry row per"):
        SkewTableau((2, 1), (), ((1, 2),))
    with pytest.raises(BadShapeError, match="row 1 has 2 entries, expected 1"):
        SkewTableau((2,), (1,), ((1, 2),))
    with pytest.raises(ValueError):
        SkewTableau((2,), (3,), ((1,),))  # inner wider than outer
    with pytest.raises(ValueError):
        SkewTableau((2, 2), (1,), ((3,), (1, 3)))  # column 2 not strict


def test_skew_column_strictness_only_for_adjacent_filled():
    # the two 3s sit in different columns, so no strictness constraint applies
    s = SkewTableau((2, 1), (1,), ((3,), (3,)))
    assert sorted(v for _, _, v in s.cells()) == [3, 3]

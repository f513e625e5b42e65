import inspect

import pytest

import plactic
from plactic import enumeration

# ssyt_count is checked against iter_ssyt, not through cell posets.
REMOVED = (
    "DEFAULT_EXTENSION_BOUND",
    "DescentPoly",
    "LabeledPoset",
    "descent_poly",
    "descents",
    "linear_extensions",
    "order_poly_count",
    "shape_poset",
)


def test_all_is_sorted_and_resolves():
    assert plactic.__all__ == sorted(set(plactic.__all__))
    for name in plactic.__all__:
        getattr(plactic, name)


@pytest.mark.parametrize("name", REMOVED)
def test_poset_route_is_gone(name):
    assert name not in plactic.__all__
    assert not hasattr(plactic, name)
    assert not hasattr(enumeration, name)


def test_tableau_constructors_always_validate():
    assert "validate" not in inspect.signature(plactic.Tableau).parameters
    assert "validate" not in inspect.signature(plactic.SkewTableau).parameters


def test_no_test_only_options():
    for fn in (plactic.rectify, plactic.rectify_steps, plactic.p_via_jdt):
        assert "policy" not in inspect.signature(fn).parameters, fn
    assert "bound" not in inspect.signature(plactic.knuth_class).parameters
    assert not hasattr(plactic.jdt, "POLICIES")


# (the error class, a call with a non-positive letter or a non-partition shape)
BAD_INPUTS = (
    (plactic.WordParseError, lambda: plactic.word((0,))),
    (plactic.WordParseError, lambda: plactic.count_centralizer_words((0,), 2, 2)),
    (plactic.WordParseError, lambda: plactic.in_centralizer((0,), (1,))),
    (plactic.WordParseError, lambda: plactic.rsk_pair((1, -2))),
    (plactic.BadShapeError, lambda: plactic.ssyt_count((1, 2), 3)),
    (plactic.BadShapeError, lambda: plactic.f_lambda((1, 2))),
    (plactic.BadShapeError, lambda: list(plactic.iter_ssyt((1, 2), 3))),
)


def test_bad_letters_and_shapes_raise_typed_errors():
    """Each is a PlacticError, and still a ValueError."""
    for error, call in BAD_INPUTS:
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, plactic.PlacticError)
        assert isinstance(info.value, ValueError)

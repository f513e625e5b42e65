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

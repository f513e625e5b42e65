import ast
import dataclasses
import doctest
import inspect
import pathlib

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


# (the error class, a call with a non-positive letter, a non-partition shape
# or a number out of its range)
BAD_INPUTS = (
    (plactic.WordParseError, lambda: plactic.word((0,))),
    (plactic.WordParseError, lambda: plactic.count_centralizer_words((0,), 2, 2)),
    (plactic.WordParseError, lambda: plactic.in_centralizer((0,), (1,))),
    (plactic.WordParseError, lambda: plactic.rsk_pair((1, -2))),
    (plactic.WordParseError, lambda: plactic.row_insert(plactic.Tableau(()), 0)),
    (plactic.UnsupportedFamilyError, lambda: plactic.Family("bogus").constrained_rows),
    (plactic.BadShapeError, lambda: plactic.ssyt_count((1, 2), 3)),
    (plactic.BadShapeError, lambda: plactic.f_lambda((1, 2))),
    (plactic.BadShapeError, lambda: list(plactic.iter_ssyt((1, 2), 3))),
    (plactic.WordParseError, lambda: plactic.single(0)),
    (plactic.WordParseError, lambda: plactic.bender_knuth(plactic.Tableau(((1,),)), 0)),
    (plactic.BadParameterError, lambda: plactic.count_centralizer_words((1,), -1, 2)),
    (plactic.BadParameterError, lambda: plactic.staircase(0)),
    (plactic.BadParameterError, lambda: plactic.count_by_shapes(plactic.single(1), -1, 2)),
    (plactic.BadParameterError, lambda: plactic.count_by_shapes(plactic.single(1), 2, -1)),
    (plactic.BadParameterError, lambda: plactic.expand_binomial((3, 2, 1), 1)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(w_length=0)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(u_sum_bound=0)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(budget=0)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(budget=True)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(w_length="3")),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(w_length=2.5)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(k_bound=None)),
    (plactic.BadParameterError, lambda: plactic.SweepConfig(u_sum_bound=2.5)),
    (plactic.BadParameterError, lambda: plactic.centralizer_words((1,), 2, 2, budget=0)),
    (plactic.BadParameterError, lambda: plactic.count_centralizer_words((1,), 2, 2, budget=-3)),
    (plactic.BadParameterError, lambda: plactic.centralizer_tableaux((1,), 2, 2, budget=2.5)),
    (plactic.BadParameterError, lambda: plactic.expand_binomial((1,), 3, budget=0)),
    (plactic.BadParameterError, lambda: plactic.check_coefficients(3, budget=-1)),
    (plactic.BadParameterError, lambda: plactic.check_coefficients(1)),
    (plactic.MaxEntryExceedsMError, lambda: plactic.check_rc((3,), 2, plactic.SweepConfig())),
    (plactic.BadParameterError, lambda: plactic.rc_m((1,), -1)),
    (plactic.BadParameterError, lambda: plactic.evacuation_m(plactic.Tableau(()), -1)),
    (plactic.BadParameterError, lambda: plactic.tau_m(plactic.Tableau(((1,),)), -1)),
    (plactic.BadParameterError, lambda: plactic.split_at(plactic.Tableau(((1,),)), -1)),
    # a letter passed on its own is checked as a word is
    (plactic.WordParseError, lambda: plactic.row_insert(plactic.Tableau(()), 1.5)),
    (plactic.WordParseError, lambda: plactic.row_insert(plactic.Tableau(()), True)),
    (plactic.WordParseError, lambda: plactic.bender_knuth(plactic.Tableau(((1,),)), 1.5)),
    (plactic.WordParseError, lambda: plactic.bender_knuth(plactic.Tableau(((1,),)), True)),
    (plactic.WordParseError, lambda: plactic.single(1.5)),
    (plactic.WordParseError, lambda: plactic.single(True)),
    (plactic.WordParseError, lambda: plactic.lwi_ending_at((1, 2), 1.5)),
    (plactic.WordParseError, lambda: plactic.Family("single", 0)),
    (plactic.BadParameterError, lambda: plactic.Family("staircase", 0)),
    (plactic.BadParameterError, lambda: plactic.test_staircase(0, (1,))),
    (plactic.WordParseError, lambda: plactic.test_single_letter_rows(0, (1,))),
    (plactic.WordParseError, lambda: plactic.test_single_letter_rows(1.5, (1,))),
    (plactic.WordParseError, lambda: plactic.test_single_letter_cols(True, (1,))),
    # the shape is checked before its cells are read
    (plactic.BadShapeError, lambda: plactic.ssyt_count((2, 1.5), 3)),
    (plactic.BadShapeError, lambda: plactic.f_lambda((True,))),
)


def test_bad_letters_and_shapes_raise_typed_errors():
    """Each is a PlacticError, and still a ValueError."""
    for error, call in BAD_INPUTS:
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, plactic.PlacticError)
        assert isinstance(info.value, ValueError)


# a length or alphabet that is not an int, or is a bool, at each entry point
NON_INT_LENGTHS = {
    "count_n_float": lambda: plactic.count_centralizer_words((1,), 2.5, 3),
    "count_m_float": lambda: plactic.count_centralizer_words((1,), 2, 3.0),
    "count_n_str": lambda: plactic.count_centralizer_words((1,), "2", 3),
    "count_n_bool": lambda: plactic.count_centralizer_words((1,), True, 3),
    "words_m_float": lambda: plactic.centralizer_words((1,), 2, 3.0),
    "tableaux_m_bool": lambda: plactic.centralizer_tableaux((1,), 2, False),
    "expand_n_float": lambda: plactic.expand_binomial((1,), 3.0),
    "coeffs_n_max_float": lambda: plactic.check_coefficients(3.0),
    "shapes_m_float": lambda: plactic.count_by_shapes(plactic.single(1), 3, 2.0),
    "shapes_n_float": lambda: plactic.count_by_shapes(plactic.single(1), 3.0, 2),
    "rc_m_float": lambda: plactic.rc_m((1, 2), 1.5),
    "tau_m_float": lambda: plactic.tau_m(plactic.Tableau(((1,),)), 1.0),
    "staircase_k_float": lambda: plactic.staircase(2.5),
    "staircase_k_bool": lambda: plactic.staircase(True),
    "ssyt_count_bound_float": lambda: plactic.ssyt_count((2, 1), 2.5),
    "ssyt_count_bound_bool": lambda: plactic.ssyt_count((2, 1), True),
    "iter_ssyt_bound_float": lambda: list(plactic.iter_ssyt((2, 1), 2.5)),
    "iter_ssyt_bound_bool": lambda: list(plactic.iter_ssyt((2, 1), True)),
    "staircase_test_m_float": lambda: plactic.test_staircase(2.5, (1,)),
    "partitions_n_float": lambda: list(plactic.iter_partitions(2.5)),
    "partitions_n_bool": lambda: list(plactic.iter_partitions(True)),
    "partitions_max_parts_float": lambda: list(plactic.iter_partitions(4, 1.5)),
}


@pytest.mark.parametrize("call", NON_INT_LENGTHS.values(), ids=NON_INT_LENGTHS)
def test_non_int_lengths_and_alphabets_raise_bad_parameter(call):
    with pytest.raises(plactic.BadParameterError):
        call()


def _unused_imports(path):
    """Names a module imports and never reads, by its syntax tree."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_no_unused_imports_in_the_package():
    """Every import of a plactic module outside the re-exporting __init__.py
    files is used."""
    package = pathlib.Path(plactic.__file__).parent
    found = {
        str(path.relative_to(package)): _unused_imports(path)
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert {path: names for path, names in found.items() if names} == {}


def _modules():
    package = pathlib.Path(plactic.__file__).parent
    return {str(path.relative_to(package)): ast.parse(path.read_text())
            for path in sorted(package.rglob("*.py"))}


def test_no_public_function_is_defined_twice():
    """No two package modules define a public top-level function of the
    same name."""
    defined = {}
    for path, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.setdefault(node.name, []).append(path)
    assert {name: paths for name, paths in defined.items() if len(paths) > 1} == {}


def test_every_specific_error_is_raised():
    """Each error class but the two bases is raised somewhere in the package."""
    modules = _modules()
    declared = {node.name for node in modules["errors.py"].body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert declared - raised - {"PlacticError", "TableauError"} == set()


def test_harness_builds_its_reports_in_one_place():
    """harness.py calls SweepReport(...) once, in the report builder that
    every check returns through."""
    calls = [
        node for node in ast.walk(_modules()["harness.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SweepReport"
    ]
    assert len(calls) == 1


def test_every_sweep_setting_is_read():
    """Each SweepConfig field is read in harness.py: as cfg.<field> in a
    function, or as self.<field> in a SweepConfig method other than the
    validation in __post_init__."""
    scopes = []
    for node in _modules()["harness.py"].body:
        if isinstance(node, ast.FunctionDef):
            scopes.append(("cfg", node))
        elif isinstance(node, ast.ClassDef) and node.name == "SweepConfig":
            scopes += [("self", f) for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name != "__post_init__"]
    read = {
        attr.attr for owner, scope in scopes for attr in ast.walk(scope)
        if isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name) and attr.value.id == owner
    }
    assert {f.name for f in dataclasses.fields(plactic.SweepConfig)} - read == set()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_pass_as_doctests(monkeypatch):
    """The ```python blocks of README.md run as one doctest, in one
    namespace, under the default budget: all 17 examples print what the
    README shows.  Every other line, the fences included, is blanked, so
    a closing fence is not read as expected output and a failure names
    its README line."""
    monkeypatch.delenv("PLACTIC_BUDGET", raising=False)
    lines = README.read_text().split("\n")
    kept = []
    inside = False
    for line in lines:
        fence = line.startswith("```")
        inside = line == "```python" if fence else inside
        kept.append(line if inside and not fence else "")
    test = doctest.DocTestParser().get_doctest("\n".join(kept), {}, "README.md", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert len(test.examples) == 17
    assert result.failed == 0, "".join(report)

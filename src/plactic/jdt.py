"""Jeu de taquin: southwest concatenation, slides, and rectification.

Rectification is confluent (any corner order gives the same tableau);
``rectify`` slides at the rightmost inner corner each time, column by
column from the right.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotAnInnerCornerError
from .rsk import p_tableau
from .tableau import SkewTableau, Tableau, trim_zeros


def southwest_concat(a: Tableau, b: Tableau) -> SkewTableau:
    """Place ``a`` southwest of ``b``: a's first row directly below b's last
    row, b shifted right by the width of a."""
    wa = len(a.rows[0]) if a.rows else 0
    outer = tuple(wa + len(r) for r in b.rows) + a.shape
    inner = (wa,) * len(b.rows)
    rows = b.rows + a.rows
    return SkewTableau(outer, inner, rows)


def _inner_profile(skew: SkewTableau) -> list:
    inner = list(skew.inner)
    inner += [0] * (len(skew.outer) - len(inner))
    return inner


def _mu_corners(inner) -> list:
    """Removable corners of the inner (blank) shape, 0-based (i, j)."""
    corners = []
    for i, inn in enumerate(inner):
        if inn == 0:
            continue
        below = inner[i + 1] if i + 1 < len(inner) else 0
        if below < inn:
            corners.append((i, inn - 1))
    return corners


def _has_filled_neighbor(outer, inner, i, j) -> bool:
    if i + 1 < len(outer) and j < outer[i + 1] and j >= (inner[i + 1] if i + 1 < len(inner) else 0):
        return True
    return j + 1 < outer[i]


def inner_corners(skew: SkewTableau) -> list:
    """Slidable inner corners as 1-based (row, col) cells."""
    inner = _inner_profile(skew)
    return [
        (i + 1, j + 1)
        for (i, j) in _mu_corners(inner)
        if _has_filled_neighbor(skew.outer, inner, i, j)
    ]


def _grid(skew: SkewTableau, inner) -> list:
    grid = []
    for i, out in enumerate(skew.outer):
        row = [None] * inner[i] + list(skew.rows[i])
        grid.append(row)
    return grid


def _from_grid(grid, outer, inner) -> SkewTableau:
    outer = trim_zeros(outer)
    rows = tuple(tuple(grid[i][inner[i] : outer[i]]) for i in range(len(outer)))
    return SkewTableau(tuple(outer), trim_zeros(inner[: len(outer)]), rows)


def _slide_once(grid, outer, inner, i, j):
    """Run one slide from the blank (i, j); mutates grid/outer/inner."""
    start = i
    while True:
        south = None
        if i + 1 < len(outer) and j < outer[i + 1]:
            south = grid[i + 1][j]
        east = grid[i][j + 1] if j + 1 < outer[i] else None
        if south is None and east is None:
            break
        if east is None or (south is not None and south <= east):
            grid[i][j] = south
            i += 1
        else:
            grid[i][j] = east
            j += 1
    # the hole leaves the shape at (i, j); the original blank leaves the
    # inner shape at its start row
    del grid[i][j]
    outer[i] -= 1
    inner[start] -= 1


def jdt_slide(skew: SkewTableau, hole: tuple) -> SkewTableau:
    """Slide into the inner corner ``hole`` (1-based (row, col)).

    The hole swaps with the smaller of its south/east neighbors, south
    winning ties, until no filled neighbor remains.
    """
    i, j = hole[0] - 1, hole[1] - 1
    inner = _inner_profile(skew)
    if (i, j) not in _mu_corners(inner):
        raise NotAnInnerCornerError(f"{hole} is not an inner corner")
    if not _has_filled_neighbor(skew.outer, inner, i, j):
        raise NotAnInnerCornerError(f"{hole} has no filled neighbor")
    grid = _grid(skew, inner)
    outer = list(skew.outer)
    _slide_once(grid, outer, inner, i, j)
    return _from_grid(grid, outer, inner)


def _slide_out(skew: SkewTableau):
    """Slide every blank out of ``skew`` on one mutable grid, always at the
    rightmost inner corner; yield (grid, outer, inner) before the first step
    and after each.  The yielded lists are live, not copies."""
    inner = _inner_profile(skew)
    outer = list(skew.outer)
    grid = _grid(skew, inner)
    yield grid, outer, inner
    while corners := _mu_corners(inner):
        # Corner columns fall from the top row down.  A corner with no
        # filled neighbour is a corner of the outer shape too, and its
        # slide only takes the cell out of the shape.
        _slide_once(grid, outer, inner, *corners[0])
        yield grid, outer, inner


def rectify_steps(skew: SkewTableau) -> list:
    """All intermediate states of rectification, initial state included."""
    steps = _slide_out(skew)
    next(steps)
    return [skew] + [_from_grid(*state) for state in steps]


def rectify(skew: SkewTableau) -> Tableau:
    """Rectification: slide all blanks out, yielding a straight tableau.
    Only the final state is built (and validated)."""
    for state in _slide_out(skew):
        pass
    return _from_grid(*state).to_tableau()


def p_via_jdt(u: Iterable[int], w: Iterable[int]) -> Tableau:
    """P(u.w) computed by rectifying P(u) placed southwest of P(w)."""
    return rectify(southwest_concat(p_tableau(u), p_tableau(w)))

"""Words, partitions, compositions, and (skew) semistandard tableaux.

Conventions used throughout the package:

* a word is a tuple of positive integers (any letters allowed, no alphabet cap);
* rows of a tableau are numbered from the top, and all public cell
  coordinates are 1-based (row, col);
* weak compositions compare with trailing zeros ignored.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from .errors import (
    BadShapeError,
    ColumnNotStrictlyIncreasingError,
    RowNotWeaklyIncreasingError,
    TableauParseError,
    WordParseError,
)

Word = tuple  # tuple[int, ...]


def word(letters: Iterable[int]) -> Word:
    """Normalize and validate a word: every letter a positive integer."""
    w = tuple(letters)
    for a in w:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise WordParseError(f"letters must be positive integers, got {a!r}")
    return w


def parse_word(text: str) -> Word:
    """Parse '2,1,2' (canonical) or the bare digit shorthand '212'.

    One trailing comma is allowed, so '12,' is the one-letter word (12,).
    Raises WordParseError, a ValueError, naming the letter it cannot read.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        parts = text.split(",")
        if parts[-1] == "":
            parts.pop()
        letters = []
        for i, part in enumerate(parts, 1):
            try:
                a = int(part)
            except ValueError:
                a = None
            if a is None or a < 1:
                raise WordParseError(f"letter {i} of {text!r} is {part!r}, not a positive integer")
            letters.append(a)
        return tuple(letters)
    if text.isdigit():
        if "0" in text:
            raise WordParseError(f"bare digit form cannot contain 0: {text!r}")
        return tuple(int(ch) for ch in text)
    raise WordParseError(f"cannot parse word {text!r}")


def format_word(w: Iterable[int]) -> str:
    """The canonical form of parse_word.  A one-letter word above 9 ends in a
    comma, as '12' would read back as the bare digits (1, 2)."""
    w = tuple(w)
    text = ",".join(str(a) for a in w)
    return text + "," if len(w) == 1 and w[0] > 9 else text


def is_partition(parts: Iterable[int]) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def _conjugate(shape: tuple) -> tuple:
    """The column lengths of a partition shape, in O(rows + columns)."""
    cols = []
    for i in range(len(shape) - 1, -1, -1):
        cols += [i + 1] * (shape[i] - len(cols))
    return tuple(cols)


def hook_product(shape: tuple) -> int:
    """Product of the hook lengths of a partition shape."""
    if not is_partition(shape):
        raise BadShapeError(f"{shape} is not a partition")
    conj = _conjugate(shape)
    return math.prod(row - j + conj[j] - i - 1 for i, row in enumerate(shape) for j in range(row))


def f_lambda(shape: Iterable[int]) -> int:
    """Number of standard tableaux of the given shape: n! over the hook
    product, at a cost that follows the answer.  The first row's hooks
    past the second row are d, ..., 1 for its overhang d, so n!/d! =
    perm(n, n - d) is divided by the other n - d hooks alone.  The
    conjugate, with the same count, is used when its overhang is longer:
    one row or column multiplies nothing, a hook (a, 1^b) b + 1 hooks."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise BadShapeError(f"{shape} is not a partition")
    if not shape:
        return 1
    if shape.count(1) > shape[0] - (shape[1] if len(shape) > 1 else 0):
        shape = _conjugate(shape)
    second = shape[1] if len(shape) > 1 else 0
    below = _conjugate(shape[1:])  # hook(i, j) = shape[i] - j + below[j] - i
    hooks = math.prod(row - j + below[j] - i for i, row in enumerate(shape)
                      for j in range(second if i == 0 else row))
    n = sum(shape)
    q, r = divmod(math.perm(n, n - shape[0] + second), hooks)
    assert r == 0
    return q


def f_lambda_log2_floor(shape: tuple) -> int:
    """A k with 2^k <= f^shape, from floats and with no big product:
    log2 n! by lgamma less the exactly rounded sum of the hooks' log2.
    Each of those n + 1 logs is within a few ulps, so the float is off by
    far less than n * 2^-30 bits, and k drops that and one bit more."""
    conj = _conjugate(shape)
    n = sum(shape)
    hooks = math.fsum(math.log2(row - j + conj[j] - i - 1)
                      for i, row in enumerate(shape) for j in range(row))
    return math.floor(math.lgamma(n + 1) / math.log(2) - hooks - 1 - n * 2**-30)


def iter_partitions(n: int, max_parts: int | None = None) -> Iterator[tuple]:
    """Partitions of n as weakly decreasing tuples, in reverse lexicographic
    order; with ``max_parts``, only those with at most that many parts."""
    if n == 0:
        yield ()
    if n <= 0 or (max_parts is not None and max_parts < 1):
        return
    rows = n if max_parts is None else max_parts
    lam = [n]
    while True:
        yield tuple(lam)
        # Lower the rightmost part that can drop by one while the parts
        # after it, no larger, still hold the rest within the row cap;
        # fill them greedily.
        rest = 0
        for i in range(len(lam) - 1, -1, -1):
            rest += lam[i]
            part = lam[i] - 1
            if part and rest - part <= part * (rows - i - 1):
                full, tail = divmod(rest - part, part)
                lam[i:] = [part] * (full + 1) + ([tail] if tail else [])
                break
        else:
            return


def trim_zeros(comp: Iterable[int]) -> tuple:
    comp = tuple(comp)
    end = len(comp)
    while end and comp[end - 1] == 0:
        end -= 1
    return comp[:end]


def dominates(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff a is dominated by b: every prefix sum of a is <= that of b."""
    a = tuple(a)
    b = tuple(b)
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def row_count_filter(row: Iterable[int], u: int, strict: bool) -> int:
    """Number of entries of a weakly increasing row that are < u (strict) or <= u."""
    row = tuple(row)
    return bisect_left(row, u) if strict else bisect_right(row, u)


def _check_cells(rows: tuple, inner: tuple = ()) -> None:
    """The semistandard conditions on filled rows: positive integer entries,
    weakly increasing rows and strictly increasing columns.  Row i + 1
    starts after inner[i] blank cells (none past the end of ``inner``)."""
    for i, row in enumerate(rows):
        inn = inner[i] if i < len(inner) else 0
        for j, a in enumerate(row):
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise BadShapeError(
                    f"entries must be positive integers, got {a!r}", cell=(i + 1, inn + j + 1)
                )
            if j and row[j - 1] > a:
                raise RowNotWeaklyIncreasingError(f"{row[j - 1]} > {a}", cell=(i + 1, inn + j + 1))
        if i:
            # the columns this row shares with the row above
            upper = inner[i - 1] if i - 1 < len(inner) else 0
            start = max(upper, inn)
            pairs = zip(rows[i - 1][start - upper :], row[start - inn :])
            for j, (a, b) in enumerate(pairs, start):
                if a >= b:
                    raise ColumnNotStrictlyIncreasingError(f"{a} >= {b}", cell=(i + 1, j + 1))


class Tableau:
    """A semistandard Young tableau; immutable, hashable.

    ``rows`` is a tuple of row tuples, top row first.  The constructor
    validates semistandardness and raises RowNotWeaklyIncreasing /
    ColumnNotStrictlyIncreasing / BadShape naming the offending cell.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]] = ()):
        rows = tuple(tuple(r) for r in rows)
        for i, row in enumerate(rows):
            if not row:
                raise BadShapeError(f"row {i + 1} is empty", cell=(i + 1, 1))
            if i and len(row) > len(rows[i - 1]):
                raise BadShapeError(
                    f"row {i + 1} longer than row {i}", cell=(i + 1, len(rows[i - 1]) + 1)
                )
        _check_cells(rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _unchecked(cls, rows: tuple) -> "Tableau":
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def shape(self) -> tuple:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def row(self, i: int) -> tuple:
        """Row i (1-based); missing rows are empty."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else ()

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def columns(self) -> tuple:
        """Columns as tuples, left to right, read top to bottom."""
        if not self.rows:
            return ()
        cols = []
        for j in range(len(self.rows[0])):
            cols.append(tuple(row[j] for row in self.rows if j < len(row)))
        return tuple(cols)

    def row_word(self) -> Word:
        """Reading word: rows concatenated bottom to top."""
        out = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def alpha(self, b: int) -> tuple:
        """Weak composition counting occurrences of b in each row."""
        return tuple(row_count_filter(r, b, False) - row_count_filter(r, b, True) for r in self.rows)

    def max_entry(self) -> int:
        """Largest entry; 0 for the empty tableau."""
        return max((r[-1] for r in self.rows), default=0)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(("Tableau", self.rows))

    def __bool__(self):
        return bool(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]!r})"

    def __str__(self):
        return format_tableau(self)


def format_tableau(t: Tableau) -> str:
    """Canonical text form: one bracketed row per line."""
    return "\n".join("[" + ",".join(str(a) for a in row) + "]" for row in t.rows)


def parse_tableau(text: str) -> Tableau:
    """Parse the form of format_tableau, blank lines ignored.

    Raises TableauParseError, a TableauError, naming the row (and the cell)
    it cannot read; the parsed rows are then validated as a Tableau.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    rows = []
    for i, line in enumerate(lines, 1):
        if not (line.startswith("[") and line.endswith("]")):
            raise TableauParseError(f"row {i} is {line!r}, not a bracketed row like [1,2]")
        body = line[1:-1].strip()
        row = []
        for j, part in enumerate(body.split(",") if body else (), 1):
            try:
                row.append(int(part))
            except ValueError:
                raise TableauParseError(
                    f"entry {part!r} of row {i} is not an integer", cell=(i, j)
                ) from None
        rows.append(tuple(row))
    return Tableau(rows)


class SkewTableau:
    """A skew semistandard tableau on the shape outer/inner.

    ``rows[i]`` holds the filled entries of row i+1, occupying columns
    inner_i+1 .. outer_i.  A row may be fully blank (inner_i == outer_i).
    """

    __slots__ = ("outer", "inner", "rows")

    def __init__(
        self,
        outer: Iterable[int] = (),
        inner: Iterable[int] = (),
        rows: Iterable[Iterable[int]] = (),
    ):
        outer = tuple(outer)
        inner = trim_zeros(inner)
        rows = tuple(tuple(r) for r in rows)
        self._check(outer, inner, rows)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def _check(outer, inner, rows):
        if not is_partition(outer):
            raise BadShapeError(f"outer shape {outer} is not a partition")
        if not is_partition(inner):
            raise BadShapeError(f"inner shape {inner} is not a partition")
        if len(inner) > len(outer):
            raise BadShapeError("inner shape has more rows than outer shape")
        if len(rows) != len(outer):
            raise BadShapeError("need one entry row per outer-shape row")
        for i, out in enumerate(outer):
            inn = inner[i] if i < len(inner) else 0
            if inn > out:
                raise BadShapeError(f"inner row {i + 1} wider than outer", cell=(i + 1, inn))
            if len(rows[i]) != out - inn:
                raise BadShapeError(
                    f"row {i + 1} has {len(rows[i])} entries, expected {out - inn}",
                    cell=(i + 1, inn + 1),
                )
        _check_cells(rows, inner)

    def __setattr__(self, name, value):
        raise AttributeError("SkewTableau is immutable")

    def inner_at(self, i: int) -> int:
        """Inner-shape width of row i (1-based); 0 beyond the inner shape."""
        return self.inner[i - 1] if 1 <= i <= len(self.inner) else 0

    def entry(self, i: int, j: int):
        """Entry at 1-based (i, j), or None for a blank/outside cell."""
        if not (1 <= i <= len(self.outer)):
            return None
        inn = self.inner_at(i)
        if inn < j <= self.outer[i - 1]:
            return self.rows[i - 1][j - inn - 1]
        return None

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_straight(self) -> bool:
        return not self.inner

    def to_tableau(self) -> Tableau:
        if self.inner:
            raise BadShapeError("skew tableau with nonempty inner shape")
        return Tableau(r for r in self.rows if r)

    def cells(self) -> Iterator[tuple]:
        """Filled cells as (i, j, entry), 1-based, row-major."""
        for i, row in enumerate(self.rows):
            inn = self.inner[i] if i < len(self.inner) else 0
            for j, a in enumerate(row):
                yield (i + 1, inn + j + 1, a)

    def __eq__(self, other):
        return (
            isinstance(other, SkewTableau)
            and self.outer == other.outer
            and self.inner == other.inner
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(("SkewTableau", self.outer, self.inner, self.rows))

    def __repr__(self):
        return f"SkewTableau(outer={self.outer!r}, inner={self.inner!r}, rows={[list(r) for r in self.rows]!r})"

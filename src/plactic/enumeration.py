"""Exact counting of centralizer words.

Two independent routes are provided:

* ``centralizer.count_centralizer_words`` tests every member tableau
  through the kernel's fill, with no family rule (the oracle);
* ``count_by_shapes`` sums g_m(shape) * f(shape) over partitions of n,
  where g_m counts the insertion tableaux allowed by a family's
  characterization and f is the standard tableau count.  The tableaux with
  entries above the constrained first rows are counted by the hook-content
  formula, one product per shape.  The paper's proof counts them through
  cell posets and order polynomials; ``linear_extensions``,
  ``descent_poly`` and ``order_poly_count`` keep that route as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .centralizer import require_budget
from .errors import (
    BoundExceededError,
    UnsupportedFamilyError,
    ValidationFailedError,
)
from .tableau import Tableau, Word, hook_product, is_partition, word

DEFAULT_EXTENSION_BOUND = 10


def binom(a: int, b: int) -> int:
    """C(a, b) with the combinatorial convention: 0 unless 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def iter_partitions(n: int) -> Iterator[tuple]:
    """Partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def _partition_count(n: int) -> int:
    """p(n), the number of partitions of n >= 0, without listing them."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p[n]


def f_lambda(shape: Iterable[int]) -> int:
    """Number of standard tableaux of the given shape (hook lengths)."""
    shape = tuple(shape)
    q, r = divmod(math.factorial(sum(shape)), hook_product(shape))
    assert r == 0
    return q


@dataclass(frozen=True)
class LabeledPoset:
    """A partial order on labels 1..size given by covering pairs (x, y), x below y."""

    size: int
    covers: frozenset

    def __post_init__(self):
        for x, y in self.covers:
            if not (1 <= x <= self.size and 1 <= y <= self.size) or x == y:
                raise ValueError(f"bad cover ({x}, {y})")
        # cycle check by Kahn's algorithm
        preds = self.predecessors()
        indeg = {v: len(preds[v]) for v in range(1, self.size + 1)}
        ready = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for x, y in self.covers:
                if x == v:
                    indeg[y] -= 1
                    if indeg[y] == 0:
                        ready.append(y)
        if seen != self.size:
            raise ValueError("cover relation has a cycle")

    def predecessors(self) -> dict:
        preds = {v: set() for v in range(1, self.size + 1)}
        for x, y in self.covers:
            preds[y].add(x)
        return preds


def shape_poset(shape: Iterable[int]) -> LabeledPoset:
    """The cell poset of a partition shape, ordered reverse component-wise
    ((i,j) below (i',j') when i >= i' and j >= j') and labeled row by row,
    right to left, starting with 1 in the first row."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")
    label = {}
    k = 0
    for i, row_len in enumerate(shape):
        for j in range(row_len - 1, -1, -1):
            k += 1
            label[(i, j)] = k
    covers = set()
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            if j >= 1:
                covers.add((label[(i, j)], label[(i, j - 1)]))
            if i >= 1:
                covers.add((label[(i, j)], label[(i - 1, j)]))
    return LabeledPoset(sum(shape), frozenset(covers))


def linear_extensions(poset: LabeledPoset, bound: int = DEFAULT_EXTENSION_BOUND) -> list:
    """All linear extensions as permutations of 1..size, lexicographic."""
    if poset.size > bound:
        raise BoundExceededError(f"poset size {poset.size} exceeds the bound {bound}")
    preds = poset.predecessors()
    out = []
    placed: set = set()
    prefix: list = []

    def rec():
        if len(prefix) == poset.size:
            out.append(tuple(prefix))
            return
        for v in range(1, poset.size + 1):
            if v in placed or not preds[v] <= placed:
                continue
            placed.add(v)
            prefix.append(v)
            rec()
            prefix.pop()
            placed.remove(v)

    rec()
    return out


def descents(pi: tuple) -> int:
    return sum(1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1])


@dataclass(frozen=True)
class DescentPoly:
    """coefficients[j] = number of linear extensions with j descents."""

    coefficients: tuple

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                x = "x" if j == 1 else f"x^{j}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(terms) if terms else "0"


def descent_poly(poset: LabeledPoset, bound: int = DEFAULT_EXTENSION_BOUND) -> DescentPoly:
    exts = linear_extensions(poset, bound)
    coeffs = [0] * max(1, poset.size)
    for pi in exts:
        coeffs[descents(pi)] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return DescentPoly(tuple(coeffs))


def order_poly_count(poset: LabeledPoset, m: int, bound: int = DEFAULT_EXTENSION_BOUND) -> int:
    """Number of order-reversing maps f from the poset into {0, ..., m}
    that drop strictly across label descents (x below y with x > y forces
    f(x) > f(y)): the sum of C(m + n - des, n) over linear extensions."""
    if poset.size == 0:
        return 1
    n = poset.size
    return sum(binom(m + n - descents(pi), n) for pi in linear_extensions(poset, bound))


def ssyt_count(shape: Iterable[int], max_entry: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= max_entry,
    by the hook-content formula: the product of max_entry + j - i over the
    cells (i, j), divided by the product of the hook lengths."""
    shape = tuple(shape)
    if not shape:
        return 1
    if max_entry <= 0:
        return 0
    hooks = hook_product(shape)
    return math.prod(max_entry + j - i for i, row in enumerate(shape) for j in range(row)) // hooks


def iter_ssyt(shape: Iterable[int], max_entry: int) -> Iterator[Tableau]:
    """All semistandard tableaux of the shape with entries <= max_entry."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")
    rows = [[0] * row_len for row_len in shape]

    def rec(i, j):
        if i == len(shape):
            yield Tableau(tuple(tuple(r) for r in rows), validate=False)
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            rows[i][j] = v
            yield from rec(ni, nj)

    if not shape:
        yield Tableau(())
        return
    yield from rec(0, 0)


@dataclass(frozen=True)
class Family:
    """A word family with a closed-form counting rule: single(a), staircase(k), word12."""

    kind: str
    param: int = 0

    @property
    def constrained_rows(self) -> int:
        if self.kind == "single":
            return 1
        if self.kind == "staircase":
            return self.param
        if self.kind == "word12":
            return 2
        raise UnsupportedFamilyError(f"unknown family kind {self.kind!r}")


def single(a: int) -> Family:
    if a < 1:
        raise ValueError(f"letter must be positive, got {a}")
    return Family("single", a)


def staircase(k: int) -> Family:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return Family("staircase", k)


def word12() -> Family:
    return Family("word12")


def family_of_word(u: Iterable[int]) -> Family:
    """Match a word against the supported families.

    Powers a^k land in single(a) since C(a^k) = C(a); u = k, k-1, ..., 1
    is staircase(k); u = 1,2 is the two-letter increasing family.
    """
    u = word(u)
    if not u:
        raise UnsupportedFamilyError("the empty word is not in a supported family")
    if len(set(u)) == 1:
        return single(u[0])
    if u == tuple(range(len(u), 0, -1)):
        return staircase(len(u))
    if u == (1, 2):
        return word12()
    raise UnsupportedFamilyError(f"no closed-form counting rule wired up for u = {u}")


def _word12_head(l1: int, l2: int, max_entry: int) -> int:
    """Fillings of the two-row shape (l1, l2) allowed in the first two rows
    of an insertion tableau of a C(12) word: columns of height 2 contain
    both letters, singleton cells are 1s or 2s with both kinds present
    whenever any singleton exists."""
    count = 0
    for t in iter_ssyt((l1, l2) if l2 else ((l1,) if l1 else ()), min(2, max_entry)):
        cols = t.columns()
        singles = [col[0] for col in cols if len(col) == 1]
        if singles and (1 not in singles or 2 not in singles):
            continue
        if all(1 in col and 2 in col for col in cols if len(col) == 2):
            count += 1
    return count


def count_by_shapes(family: Family, n: int, m: int) -> int:
    """c_{n,m}(u) for a supported family, summed over insertion-tableau shapes.

    For each partition of n the first ``r`` rows are counted under the
    family's characterization (capped at min(r, m) since entries never
    exceed m) and the remaining rows, which are forced above r, contribute
    a shifted semistandard count.  Multiplying by f(shape) counts words.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    r = family.constrained_rows
    if family.kind == "single" and family.param > m:
        # no word over [m] contains the letter, so only the empty word commutes
        return 1 if n == 0 else 0
    total = 0
    for lam in iter_partitions(n):
        head_shape = lam[:r]
        tail_shape = lam[r:]
        if family.kind == "single":
            head = 1
        elif family.kind == "staircase":
            head = ssyt_count(head_shape, min(r, m))
        else:  # word12
            l1 = lam[0] if lam else 0
            l2 = lam[1] if len(lam) > 1 else 0
            head = _word12_head(l1, l2, m)
        if head == 0:
            continue
        tail = ssyt_count(tail_shape, m - r)  # entries in {r+1, ..., m}
        if tail == 0:
            continue
        total += head * tail * f_lambda(lam)
    return total


@dataclass(frozen=True)
class BinomialPoly:
    """A polynomial sum(a_k * C(m, k)); coefficients has a_k at index k,
    with no trailing zero unless the polynomial is zero."""

    coefficients: tuple

    def __call__(self, m: int) -> int:
        return sum(a * binom(m, k) for k, a in enumerate(self.coefficients))

    def __str__(self):
        terms = []
        for k, a in enumerate(self.coefficients):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            else:
                base = f"C(m,{k})"
                terms.append(base if a == 1 else f"{a}*{base}")
        return " + ".join(terms) if terms else "0"


def _fit_binomial(m0: int, values: list) -> BinomialPoly:
    """The polynomial sum(a_k C(m, k)) of degree < len(values) that takes
    values[i] at m = m0 + i.

    The j-th forward difference at m0 is the sum of a_k C(m0, k - j) over
    k >= j, so the coefficients come out exactly, from the top degree down.
    """
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = [0] * len(diffs)
    for j in reversed(range(len(diffs))):
        coeffs[j] = diffs[j] - sum(coeffs[k] * binom(m0, k - j) for k in range(j + 1, len(diffs)))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return BinomialPoly(tuple(coeffs))


def expand_binomial(u: Iterable[int], n: int, budget=None) -> BinomialPoly:
    """The binomial-basis expansion of m -> c_{n,m}(u), degree n - r.

    Counts are sampled at the d+1 points m0, ..., m0+d through the shape
    sum, where m0 = max(n, family letter bound): below that the count can
    sit off the polynomial.  One extra sample validates the fit and raises
    ValidationFailed on mismatch.  The d+2 shape sums add (d+2) * p(n)
    shape terms; BudgetExceeded is raised up front when that is over the
    word budget (None means default_budget()).
    """
    u = word(u)
    family = family_of_word(u)
    r = family.constrained_rows
    if n < r:
        raise ValueError(f"need n >= {r} for u = {u}, got n = {n}")
    d = n - r
    require_budget((d + 2) * _partition_count(n), budget, f"shape terms in expanding c_{{{n},m}}")
    m0 = max(n, max(u))
    values = [count_by_shapes(family, n, m) for m in range(m0, m0 + d + 2)]
    poly = _fit_binomial(m0, values[:-1])
    check_m = m0 + d + 1
    if poly(check_m) != values[-1]:
        raise ValidationFailedError(
            f"fit predicts {poly(check_m)} at m={check_m}, count gives {values[-1]}"
        )
    return poly

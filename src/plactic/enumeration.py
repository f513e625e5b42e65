"""Exact counting of centralizer words.

Two independent routes are provided:

* ``centralizer.count_centralizer_words`` tests every member tableau
  through the kernel's fill, with no family rule (the oracle);
* ``count_by_shapes`` sums g_m(shape) * f(shape) over partitions of n,
  where g_m counts the insertion tableaux allowed by a family's
  characterization and f is the standard tableau count.  Every factor is
  a closed form: the family's head (1, hook-content, or the C(12) count of
  ``_word12_head``) and, above the constrained first rows, hook-content.

The shape sum comes in two steps.  ``_shape_terms`` lists, once per
(family, n), each shape's m-independent factor: the head count times f,
the tail's cell contents and the tail's hook product.  ``_sum_terms``
evaluates that list at one m.  ``expand_binomial`` lists the terms once and
evaluates them at every sampled m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .centralizer import natural_int, positive_int, require_budget, resolve_budget
from .errors import BadParameterError, BadShapeError, UnsupportedFamilyError, ValidationFailedError
from .tableau import Tableau, f_lambda, hook_product, is_partition, iter_partitions, word


def binom(a: int, b: int) -> int:
    """C(a, b) with the combinatorial convention: 0 unless 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ...: the numbers of partitions, without listing
    them, by Euler's pentagonal number recurrence
    p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))."""
    p = [1]
    yield 1
    while True:
        k = len(p)
        total = 0
        j, g = 1, 1  # g = j(3j-1)/2, the pentagonal numbers
        while g <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
            g += 3 * j - 2
        p.append(total)
        yield total


def _contents(shape: tuple) -> tuple:
    """The contents j - i of the cells (i, j) of a shape, row by row."""
    return tuple(j - i for i, row in enumerate(shape) for j in range(row))


def _entry_bound(max_entry) -> int:
    """``max_entry``, which must be an int and not a bool; a bound below 1
    allows no entry."""
    if isinstance(max_entry, bool) or not isinstance(max_entry, int):
        raise BadParameterError(f"max_entry must be an integer, got {max_entry!r}")
    return max_entry


def _hook_content(contents: tuple, hooks: int, max_entry: int) -> int:
    """The hook-content formula: the product of max_entry + c over the cell
    contents c, divided by the hook product.  The empty shape has one
    filling, and a nonempty one none when max_entry <= 0."""
    if not contents:
        return 1
    if max_entry <= 0:
        return 0
    return math.prod(max_entry + c for c in contents) // hooks


def ssyt_count(shape: Iterable[int], max_entry: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= max_entry,
    by the hook-content formula: the product of max_entry + j - i over the
    cells (i, j), divided by the product of the hook lengths."""
    shape = tuple(shape)
    hooks = hook_product(shape)
    return _hook_content(_contents(shape), hooks, _entry_bound(max_entry))


def iter_ssyt(shape: Iterable[int], max_entry: int) -> Iterator[Tableau]:
    """All semistandard tableaux of the shape with entries <= max_entry."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise BadShapeError(f"{shape} is not a partition")
    max_entry = _entry_bound(max_entry)
    rows = [[0] * row_len for row_len in shape]

    def rec(i, j):
        if i == len(shape):
            yield Tableau._unchecked(tuple(tuple(r) for r in rows))
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = max(rows[i][j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
        for v in range(lo, max_entry + 1):
            rows[i][j] = v
            yield from rec(ni, nj)

    yield from rec(0, 0)


@dataclass(frozen=True)
class Family:
    """A word family with a closed-form counting rule: single(a), staircase(k), word12.
    The kind and its parameter are checked when the family is built."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind == "single":
            word((self.param,))
        elif self.kind == "staircase":
            positive_int(self.param, "k")
        elif self.kind != "word12":
            raise UnsupportedFamilyError(f"unknown family kind {self.kind!r}")

    @property
    def constrained_rows(self) -> int:
        if self.kind == "single":
            return 1
        if self.kind == "staircase":
            return self.param
        return 2  # word12


def single(a: int) -> Family:
    return Family("single", a)


def staircase(k: int) -> Family:
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


def _word12_head(l1: int, l2: int, cap: int) -> int:
    """Fillings of the two-row shape (l1, l2) with entries <= cap <= 2
    allowed in the first two rows of an insertion tableau of a C(12) word.
    Below cap 2 no column holds both 1 and 2, so only the empty shape
    counts.  At cap 2 the l2 columns of height 2 are forced to (1, 2), and
    the l1 - l2 singleton columns read 1s then 2s with both letters if any:
    one filling when l1 == l2, else l1 - l2 - 1 places for the first 2."""
    if cap < 2:
        return int(l1 == 0)
    return 1 if l1 == l2 else l1 - l2 - 1


def _shape_terms(family: Family, n: int, cap: int) -> list:
    """The m-independent factors of the shape sum for partitions of n.

    One (weight, tail contents, tail hook product) per partition whose
    first r rows have a nonzero count under the family's characterization
    with entries <= cap = min(r, m); weight is that count times f(shape).
    """
    r = family.constrained_rows
    terms = []
    for lam in iter_partitions(n):
        if family.kind == "single":
            head = 1
        elif family.kind == "staircase":
            head = ssyt_count(lam[:r], cap)
        else:  # word12
            head = _word12_head(lam[0] if lam else 0, lam[1] if len(lam) > 1 else 0, cap)
        if head:
            tail = lam[r:]
            terms.append((head * f_lambda(lam), _contents(tail), hook_product(tail)))
    return terms


def _sum_terms(terms: list, max_entry: int) -> int:
    """The shape sum at one m, from ``_shape_terms``: each weight times the
    number of tails filled with entries r+1..m, i.e. max_entry = m - r."""
    return sum(weight * _hook_content(contents, hooks, max_entry)
               for weight, contents, hooks in terms)


def count_by_shapes(family: Family, n: int, m: int) -> int:
    """c_{n,m}(u) for a supported family, summed over insertion-tableau shapes.

    For each partition of n the first ``r`` rows are counted under the
    family's characterization (capped at min(r, m) since entries never
    exceed m) and the remaining rows, which are forced above r, contribute
    a shifted semistandard count.  Multiplying by f(shape) counts words.
    The terms are listed at cap min(r, m) and evaluated at m.
    """
    natural_int(n, "n")
    natural_int(m, "m")
    r = family.constrained_rows
    if family.kind == "single" and family.param > m:
        # no word over [m] contains the letter, so only the empty word commutes
        return 1 if n == 0 else 0
    return _sum_terms(_shape_terms(family, n, min(r, m)), m - r)


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
    ValidationFailed on mismatch.  The shape terms are listed once (m0 >= r
    caps the head at r) and evaluated at each of the d+2 points, so
    (d+2) * p(n) shape terms are evaluated; BudgetExceeded is raised up
    front, before any shape is listed, when that is over the word budget
    (None means default_budget()).  p is nondecreasing, so the partitions
    are counted up to n only while (d+2) * p(k) stays within the budget.
    """
    u = word(u)
    family = family_of_word(u)
    r = family.constrained_rows
    if natural_int(n, "n") < r:
        raise BadParameterError(f"need n >= {r} for u = {u}, got n = {n}")
    d = n - r
    limit = resolve_budget(budget)
    for k, p in zip(range(n + 1), _partition_counts()):
        if (d + 2) * p > limit:
            at_least = "" if k == n else f", at least {d + 2} * p({k})"
            require_budget((d + 2) * p, limit, f"shape terms in expanding c_{{{n},m}}{at_least}")
    m0 = max(n, max(u))
    terms = _shape_terms(family, n, r)
    values = [_sum_terms(terms, m - r) for m in range(m0, m0 + d + 2)]
    poly = _fit_binomial(m0, values[:-1])
    check_m = m0 + d + 1
    if poly(check_m) != values[-1]:
        raise ValidationFailedError(
            f"fit predicts {poly(check_m)} at m={check_m}, count gives {values[-1]}"
        )
    return poly

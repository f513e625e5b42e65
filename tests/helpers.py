"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written from the definitions, sharing no
code with the library: straight-line insertion without binary search,
brute-force subsequence scans, and exhaustive filling enumeration.  The sweep
references replay, word by word, what the conjecture sweeps compute by
member tableau; ``per_word_rc`` takes the tau_m to test, so a forced one
can make members fail.  Four build on the library:
``rectify_lowest_corner_first`` runs its single jeu de taquin slide in a
corner order of its own, ``split_at_oracle`` and ``tau_m_oracle`` split a
tableau by filtering its rows and glue the evacuated part back row by row
on its Tableau, SkewTableau and evacuation_m, and ``word12_head_oracle``
lists the C(12) heads with iter_ssyt and filters them with c12_columns.
``class_words`` is no oracle: it joins the library's listing blocks into
one list.
"""

from __future__ import annotations

import itertools
from math import comb, prod


def insert_oracle(rows, a):
    """Row insertion by linear scan."""
    rows = [list(r) for r in rows]
    i = 0
    while True:
        if i == len(rows):
            rows.append([a])
            return rows
        row = rows[i]
        for j, v in enumerate(row):
            if v > a:
                row[j], a = a, v
                break
        else:
            row.append(a)
            return rows
        i += 1


def p_oracle(w):
    rows = []
    for a in w:
        rows = insert_oracle(rows, a)
    return tuple(tuple(r) for r in rows)


def commutes_oracle(u, w):
    return p_oracle(tuple(u) + tuple(w)) == p_oracle(tuple(w) + tuple(u))


def centralizer_oracle(u, n, m):
    return [w for w in itertools.product(range(1, m + 1), repeat=n) if commutes_oracle(u, w)]


def partitions_oracle(n, largest):
    """Partitions of n with parts <= largest, in reverse lexicographic
    order."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_oracle(n - first, first):
            yield (first,) + rest


def fill_oracle(u, n, m):
    """The member tableaux of C(u) with n cells and entries <= m, in the
    order of the kernels' fills, by their backtracking with no pruning:
    shapes of at most m rows in reverse lexicographic order, and in each
    every SSYT, filled in row-word order (bottom row first, left to right)
    while P(u) <- (the row word so far) is carried along, then tested in
    full: T <- u == P(u) <- rowword(T)."""
    if n == 0:
        return [()]
    found = []
    for shape in partitions_oracle(n, n):
        if len(shape) > m:
            continue
        cells = [(i, j) for i in reversed(range(len(shape))) for j in range(shape[i])]
        t = [[0] * length for length in shape]

        def fill(k, state):
            if k == len(cells):
                tu = [list(row) for row in t]
                for a in u:
                    tu = insert_oracle(tu, a)
                if tu == state:
                    found.append(tuple(tuple(row) for row in t))
                return
            i, j = cells[k]
            lo = max(i + 1, t[i][j - 1] if j else 1)
            hi = t[i + 1][j] - 1 if i + 1 < len(shape) and j < shape[i + 1] else m
            for v in range(lo, hi + 1):
                t[i][j] = v
                fill(k + 1, insert_oracle(state, v))

        fill(0, [list(row) for row in p_oracle(u)])
    return found


def per_word_counterexamples(us, w_alphabet, w_length, detail):
    """Counterexample payloads of a sweep made word by word: every member w
    of C(us[i]), length by length and in lexicographic order, with
    detail(i, P(w)) for each (None when w passes)."""
    out = []
    for i, u in enumerate(us):
        for w in words_over(w_alphabet, w_length):
            if commutes_oracle(u, w):
                found = detail(i, p_oracle(w))
                if found is not None:
                    out.append({"u": list(u), "w": list(w), "detail": found})
    return out


def per_word_rc(pairs, w_alphabet, w_length, tau):
    """Counterexample payloads of the rc check made word by word, with the
    per-tableau test the sweep ran before it compared fills: for each
    (u, m) pair with m < w_alphabet, a member w of either side fails when
    the row word of tau(P(w), m) does not commute with the other side.
    The other side is u reversed and complemented in [m]; the pairs with
    m >= w_alphabet, which cannot fail, give nothing."""
    from plactic import Tableau

    out = []
    for u, m in pairs:
        if m >= w_alphabet:
            continue
        sides = [tuple(u), tuple(m + 1 - a for a in reversed(u))]

        def detail(i, rows, m=m, sides=sides):
            image = tau(Tableau(rows), m).row_word()
            if commutes_oracle(sides[1 - i], image):
                return None
            return (f"tau_{m} image with row word [{','.join(map(str, image))}] is not in "
                    f"C({','.join(map(str, sides[1 - i]))})")

        out += per_word_counterexamples(sides, w_alphabet, w_length, detail)
    return out


def per_word_stability(u, k_bound, w_alphabet, w_length, member):
    """(set sizes, non-containments) of a stability sweep made from word
    sets: S_k holds the w with member(u^k, w), and a failed containment
    S_k <= S_{k+1} is witnessed by the least word of the difference."""
    sets = [
        {w for w in words_over(w_alphabet, w_length) if member(tuple(u) * k, w)}
        for k in range(1, k_bound + 1)
    ]
    missing = [{"k": k, "w": list(min(a - b))} for k, (a, b) in enumerate(zip(sets, sets[1:]), 1) if a - b]
    return [len(s) for s in sets], missing


def lwi_oracle(w):
    """Longest weakly increasing subsequence by scanning every subset."""
    best = 0
    n = len(w)
    for mask in range(1 << n):
        sub = [w[i] for i in range(n) if mask >> i & 1]
        if all(x <= y for x, y in zip(sub, sub[1:])):
            best = max(best, len(sub))
    return best


def knuth_class_oracle(w):
    """The Knuth class of w by its definition: the closure of w under the
    moves on three adjacent letters, acb <-> cab (a <= b < c) and
    bac <-> bca (a < b <= c), walked breadth first."""
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(len(v) - 2):
                x, y, z = v[i : i + 3]
                moved = []
                if min(x, y) <= z < max(x, y):  # z is the b of acb / cab
                    moved.append((y, x, z))
                if min(y, z) < x <= max(y, z):  # x is the b of bac / bca
                    moved.append((x, z, y))
                for window in moved:
                    v2 = v[:i] + window + v[i + 3 :]
                    if v2 not in seen:
                        seen.add(v2)
                        nxt.append(v2)
        frontier = nxt
    return frozenset(seen)


def class_words_oracle(tableaux, n):
    """The words w with P(w) in ``tableaux`` (tuples of row tuples of n
    cells), in lexicographic order, by the letter-by-letter walk the
    listing used before its split walk: the insertion paths are built
    back level by level, reverse-bumping each corner by linear scan, and
    then walked from the empty tableau, one stack step per letter."""
    level = {rows: i for i, rows in enumerate(tableaux)}
    if not level:
        return []
    if n == 0:
        return [()]
    edges = [None] * n
    for k in range(n - 1, -1, -1):
        below = {}
        out = []
        for rows, i in level.items():
            for r, row in enumerate(rows):
                if r + 1 < len(rows) and len(rows[r + 1]) == len(row):
                    continue  # not a corner row
                top = [list(x) for x in rows[: r + 1]]
                a = top[r].pop()
                for x in reversed(top[:r]):
                    pos = max(j for j, v in enumerate(x) if v < a)
                    x[pos], a = a, x[pos]
                s = tuple(tuple(x) for x in top if x) + rows[r + 1 :]
                j = below.setdefault(s, len(out))
                if j == len(out):
                    out.append([])
                out[j].append((a, i))
        edges[k] = [sorted(e) for e in out]
        level = below
    found = []
    word = []
    stack = [iter(edges[0][0])]
    while stack:
        for a, i in stack[-1]:
            word.append(a)
            if len(word) == n:
                found.append(tuple(word))
                word.pop()
            else:
                stack.append(iter(edges[len(word)][i]))
            break
        else:
            stack.pop()
            if word:
                word.pop()
    return found


def class_words(tableaux, n):
    """The words of ``plactic._kernels.class_blocks(tableaux)`` as one
    list, each prefix joined to its suffixes; each has the length n of
    the tableaux, which class_blocks reads off them."""
    from plactic import _kernels

    words = [p + s for p, suffixes in _kernels.class_blocks(tableaux) for s in suffixes]
    assert all(len(w) == n for w in words), n
    return words


def words_over(alphabet, max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=n)


def syt_count_oracle(shape):
    """Standard tableaux counted by placing 1..n one at a time."""
    shape = tuple(shape)
    n = sum(shape)
    if n == 0:
        return 1

    def rec(rows):
        filled = sum(rows)
        if filled == n:
            return 1
        total = 0
        for i, have in enumerate(rows):
            if have < shape[i] and (i == 0 or rows[i - 1] > have):
                total += rec(rows[:i] + (have + 1,) + rows[i + 1 :])
        return total

    return rec((0,) * len(shape))


def order_poly_oracle(shape, q):
    """SSYT of a shape with entries <= q counted by the linear-extension
    route: each standard tableau T (a linear extension of the cell poset)
    adds binom(q - des(T) + n - 1, n), where i is a descent of T when i + 1
    sits in a lower row than i."""
    shape = tuple(shape)
    n = sum(shape)
    if n == 0:
        return 1

    def rec(rows, last_row, des):
        if sum(rows) == n:
            return comb(q - des + n - 1, n)
        total = 0
        for i, have in enumerate(rows):
            if have < shape[i] and (i == 0 or rows[i - 1] > have):
                step = 1 if last_row is not None and i > last_row else 0
                total += rec(rows[:i] + (have + 1,) + rows[i + 1 :], i, des + step)
        return total

    return rec((0,) * len(shape), None, 0)


def ssyt_fillings_oracle(shape, max_entry):
    """All SSYT of a shape by filtering raw fillings. Small shapes only."""
    shape = tuple(shape)
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    out = []
    for values in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        grid = {}
        for (i, j), v in zip(cells, values):
            grid[(i, j)] = v
        ok = True
        for (i, j), v in grid.items():
            if j > 0 and grid[(i, j - 1)] > v:
                ok = False
                break
            if i > 0 and grid[(i - 1, j)] >= v:
                ok = False
                break
        if ok:
            out.append(tuple(tuple(grid[(i, j)] for j in range(r)) for i, r in enumerate(shape)))
    return out


def word12_head_oracle(l1, l2, cap):
    """The fillings of the two-row shape (l1, l2) with entries <= cap that
    the C(12) column rule allows, counted by listing them."""
    from plactic.centralizer import c12_columns
    from plactic.enumeration import iter_ssyt

    shape = (l1, l2) if l2 else ((l1,) if l1 else ())
    return sum(c12_columns(t.columns()) for t in iter_ssyt(shape, cap))


def hook_product(shape):
    shape = tuple(shape)
    if not shape:
        return 1
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])]
    return prod((r - j) + (conj[j] - i) - 1 for i, r in enumerate(shape) for j in range(r))


def rectify_lowest_corner_first(skew):
    """Rectify ``skew`` by jdt_slide at its lowest inner corner until no
    corner is left, check that no blank remains and that the result is
    rectify(skew), which slides at the top (rightmost) corner each time,
    and return it: a check of confluence."""
    from plactic import inner_corners, jdt_slide, rectify

    s = skew
    while corners := inner_corners(s):
        s = jdt_slide(s, max(corners))
    t = s.to_tableau()  # BadShapeError if a blank is left
    assert t == rectify(skew), skew
    return t


def split_at_oracle(t, m):
    """(entries <= m as a tableau, the rest as a skew tableau), each row
    filtered by value and empty rows trimmed from the bottom."""
    from plactic import SkewTableau, Tableau

    low_rows = [tuple(v for v in row if v <= m) for row in t.rows]
    while low_rows and not low_rows[-1]:
        low_rows.pop()
    inner = tuple(sum(1 for v in row if v <= m) for row in t.rows)
    high_rows = tuple(tuple(v for v in row if v > m) for row in t.rows)
    keep = len(high_rows)
    while keep and not high_rows[keep - 1]:
        keep -= 1
    if keep == 0:
        return Tableau(low_rows), SkewTableau((), (), ())
    return Tableau(low_rows), SkewTableau(t.shape[:keep], inner[:keep], high_rows[:keep])


def tau_m_oracle(t, m):
    """tau_m by splitting at m, evacuating the straight part and gluing
    its rows to the skew part's, one row at a time."""
    from plactic import Tableau, evacuation_m

    low, high = split_at_oracle(t, m)
    evac = evacuation_m(low, m)
    assert evac.shape == low.shape, (t, m)
    rows = []
    for i in range(max(len(evac.rows), len(high.rows))):
        small = evac.rows[i] if i < len(evac.rows) else ()
        big = high.rows[i] if i < len(high.rows) else ()
        rows.append(small + big)
    return Tableau(rows)

"""Sweep engine for the four conjectures.

The maxri, stability and rc checks list the insertion tableaux of the
members of C(u) in the w range with the kernel's tableau fill, one fill
per distinct (P(u), length), and test each tableau once: membership and
the conjectures' tests read P(w) alone, and C(u) depends on P(u) alone.
No fill is made for a word whose test a theorem settles: a maxri u with
max(u) >= w_alphabet or u = a^k (see check_max_ri), and an rc pair with
m >= w_alphabet in the sweep (see _rc_members).  The rc check is one
such pass over the two sides of every (u, m) pair; it compares the
tau_m images of one side's fill with the other side's fill, and so
runs no in_centralizer test.  Each side's failures are settled once per
(side, m, length), into one table that every later reader of that side
takes them from.  Only a tableau that fails is expanded into the words
of its Knuth class.  Each check returns a SweepReport.  Reports
serialize to a canonical JSON form that is byte-stable across reruns;
wall-clock time is kept on the report object and pinned to 0 in the
JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Callable, Iterable, Iterator

from . import _kernels
from .centralizer import (
    centralizer_tableaux,
    natural_int,
    positive_int,
    refuse_huge_power,
    require_budget,
    resolve_budget,
)
from .enumeration import expand_binomial
from .errors import BadParameterError, MaxEntryExceedsMError
from .involutions import rc_m, tau_m
from .rsk import p_tableau
from .tableau import Word, format_word, word

VERDICT_HOLDS = "holds"
VERDICT_COUNTEREXAMPLE = "counterexample"
VERDICT_INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class SweepConfig:
    """Ranges for a conjecture sweep.

    u ranges over words with letters in [u_alphabet], 1 <= |u| <= u_length
    and, when u_sum_bound is set, max(u) + |u| <= u_sum_bound; w ranges
    over all words with letters in [w_alphabet] and |w| <= w_length.
    """

    u_alphabet: int = 4
    u_length: int = 4
    u_sum_bound: int | None = None
    w_alphabet: int = 4
    w_length: int = 4
    k_bound: int = 4
    budget: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None or name not in ("u_sum_bound", "budget"):
                positive_int(value, name)

    def echo(self, **extra) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["budget"] = resolve_budget(self.budget)
        out.update(extra)
        return out


@dataclass(frozen=True)
class SweepReport:
    conjecture: str
    config: dict
    checked: int
    verdict: str
    counterexamples: tuple
    elapsed_ms: int
    observed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical report payload; elapsed_ms is pinned so identical
        sweeps serialize identically."""
        return {
            "conjecture": self.conjecture,
            "config": self.config,
            "checked": self.checked,
            "verdict": self.verdict,
            "counterexamples": list(self.counterexamples),
            "elapsed_ms": 0,
            "observed": self.observed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def words_up_to(alphabet: int, max_len: int) -> Iterator[Word]:
    """Words over [alphabet] of length 0 to max_len, the empty word
    first, by length and lexicographic within a length."""
    for n in range(max_len + 1):
        for letters in product(range(1, alphabet + 1), repeat=n):
            yield letters


def count_words_up_to(alphabet: int, max_len: int) -> int:
    """The number of words words_up_to(alphabet, max_len) lists, as a
    closed geometric sum."""
    if alphabet == 1:
        return max_len + 1
    return (alphabet ** (max_len + 1) - 1) // (alphabet - 1)


def _u_range(cfg: SweepConfig) -> list:
    return [u for u in words_up_to(cfg.u_alphabet, cfg.u_length)
            if u and (cfg.u_sum_bound is None or max(u) + len(u) <= cfg.u_sum_bound)]


def _sweep_members(us: list, cfg: SweepConfig, judge: Callable, reads: list) -> tuple:
    """Call judge(i, n, fills) once on every block (us[i], n), n = 0 to
    w_length, after one budget check on the len(us) * (words in the w
    range) pairs of the whole sweep, which refuse_huge_power settles
    without building that count when the w range is huge.

    fills holds, for each j in reads[i], the insertion tableaux of the
    members of C(us[j]) with n cells.  They come from one kernel fill per
    distinct (P(us[j]), n): C(u) depends on P(u) alone, so every word with
    the same insertion tableau reuses one fill, which is dropped at the end
    of the last block that reads it.  A block that reads nothing gets no
    fill: that is how a check passes over words whose test cannot fail.
    judge returns a list of (t, detail), one for each failing member
    tableau t of us[i]; every word of t's Knuth class then gives a
    counterexample payload, and a block's payloads are put in word order.
    Returns (checked, counterexamples, complete), where checked counts the
    words of every finished block.  This is the one place an interrupt is
    caught: it ends the sweep inside the block it hits, which is not
    counted.
    """
    what = "(u, w) pairs in the sweep"
    limit = refuse_huge_power(len(us), cfg.w_alphabet, cfg.w_length, cfg.budget, what)
    n_w = count_words_up_to(cfg.w_alphabet, cfg.w_length) if us else 0
    budget = require_budget(len(us) * n_w, limit, what)
    keys = [tuple(_kernels.insertion_rows(us[j]) for j in js) for js in reads]
    last = {key: i for i, block_keys in enumerate(keys) for key in block_keys}
    fills: dict = {}
    checked = 0
    counterexamples = []
    try:
        for i, (u, js, block_keys) in enumerate(zip(us, reads, keys)):
            for n in range(cfg.w_length + 1):
                for j, key in zip(js, block_keys):
                    if (key, n) not in fills:
                        fills[key, n] = centralizer_tableaux(us[j], n, cfg.w_alphabet,
                                                             budget=budget)
                found = judge(i, n, [fills[key, n] for key in block_keys])
                for key in block_keys:
                    if last[key] == i:
                        fills.pop((key, n), None)
                block = len(counterexamples)
                for t, detail in found:
                    counterexamples.extend(
                        {"u": list(u), "w": list(prefix + s), "detail": detail}
                        for prefix, suffixes in _kernels.class_blocks([t.rows])
                        for s in suffixes
                    )
                counterexamples[block:] = sorted(counterexamples[block:], key=lambda c: c["w"])
                checked += cfg.w_alphabet**n
    except KeyboardInterrupt:
        return checked, counterexamples, False
    return checked, counterexamples, True


def _verdict(counterexamples, complete: bool) -> str:
    if counterexamples:
        return VERDICT_COUNTEREXAMPLE
    return VERDICT_HOLDS if complete else VERDICT_INCOMPLETE


def _report(conjecture: str, config: dict, t0: float, checked: int, counterexamples,
            complete: bool, observed: dict) -> SweepReport:
    """The report of a check that started at time.monotonic() == t0."""
    return SweepReport(
        conjecture=conjecture,
        config=config,
        checked=checked,
        verdict=_verdict(counterexamples, complete),
        counterexamples=tuple(counterexamples),
        elapsed_ms=int((time.monotonic() - t0) * 1000),
        observed=observed,
    )


def check_max_ri(cfg: SweepConfig) -> SweepReport:
    """For every u in range and every w in C(u) in range, the first
    (number of rows of P(u)) rows of P(w) must have entries <= max(u).
    Two kinds of u cannot fail, so their members are not listed, but
    their pairs are counted as checked: a u with max(u) >= w_alphabet,
    since no entry of P(w) exceeds w_alphabet, and a power u = a^k, read
    off the P(u) that gives the row bound as one row whose first entry is
    max(u): C(a^k) = C(a), and row 1 of P(w) is <= a for every w in C(a)
    (centralizer.test_single_letter_rows)."""
    t0 = time.monotonic()
    us = _u_range(cfg)
    bounds = []
    reads = []
    for i, u in enumerate(us):
        rows = p_tableau(u).rows
        bounds.append((max(u), len(rows)))
        settled = max(u) >= cfg.w_alphabet or (len(rows) == 1 and rows[0][0] == max(u))
        reads.append(() if settled else (i,))

    def test(i, t):
        m, ell = bounds[i]
        rows = t.rows
        for r in range(min(ell, len(rows))):
            if rows[r][-1] > m:
                return f"row {r + 1} of the P-tableau has max {rows[r][-1]} > max(u) = {m}"
        return None

    def judge(i, n, fills):
        return [(t, detail) for own in fills for t in own if (detail := test(i, t))]

    checked, cx, complete = _sweep_members(us, cfg, judge, reads)
    return _report("maxri", cfg.echo(), t0, checked, cx, complete, {"u_words": len(us)})


def _least_word(t) -> tuple:
    """The least word of the Knuth class of ``t``: the first word of its
    first block."""
    prefix, suffixes = next(_kernels.class_blocks([t.rows]))
    return prefix + suffixes[0]


def check_stability(u: Iterable[int], cfg: SweepConfig) -> SweepReport:
    """Compute S_k = C(u^k) within the w range for k = 1..k_bound and
    report the smallest K (resp. L) from which the containments
    S_k <= S_{k+1} (resp. equalities) all hold through the range, along
    with every containment failure.  K or L is k_bound when nothing
    below it worked (vacuously: no containment left to check)."""
    t0 = time.monotonic()
    u = word(u)
    sets: dict = {k: set() for k in range(1, cfg.k_bound + 1)}

    def judge(i, n, fills):
        sets[i + 1].update(*fills)
        return ()

    # The sets hold insertion tableaux; each stands for f^shape words.
    reads = [(i,) for i in range(len(sets))]
    checked, _, complete = _sweep_members([u * k for k in sets], cfg, judge, reads)
    observed: dict = {"set_sizes": [_kernels.count_words(t.shape for t in sets[k]) for k in sets]}
    if complete:
        non_containments = []
        bad_containment = 0
        bad_equality = 0
        for k in range(1, cfg.k_bound):
            diff = sets[k] - sets[k + 1]
            if diff:
                witness = min(_least_word(t) for t in diff)
                bad_containment = k
                non_containments.append({"k": k, "w": list(witness)})
            if sets[k] != sets[k + 1]:
                bad_equality = k
        observed["K"] = bad_containment + 1
        observed["L"] = bad_equality + 1
        observed["non_containments"] = non_containments
    return _report("stability", cfg.echo(u=list(u)), t0, checked, (), complete, observed)


def _coefficient_failures(n: int, coeffs: tuple) -> list:
    """The four claims about the binomial coefficients of c_{n,m}(1)."""
    a = list(coeffs) + [0] * (n - len(coeffs))
    bad = []
    if a[0] != 0 or a[1] != 1:
        bad.append(f"(a) a_0={a[0]}, a_1={a[1]}")
    if any(a[k] < 1 for k in range(1, n)):
        bad.append("(b) " + ", ".join(f"a_{k}={a[k]}" for k in range(1, n) if a[k] < 1))
    for k in range(1, n - 1):
        if a[k] * a[k] < a[k - 1] * a[k + 1]:
            bad.append(f"(c) a_{k}^2 = {a[k] ** 2} < a_{k - 1}*a_{k + 1} = {a[k - 1] * a[k + 1]}")
    peak = -((-n) // 2)  # ceil(n/2)
    if a[peak] != max(a[1:n]):
        bad.append(f"(d) a_{peak}={a[peak]} is not the maximum {max(a[1:n])}")
    return bad


def check_coefficients(n_max: int, budget: int | None = None) -> SweepReport:
    """Expand c_{n,m}(1) for n = 2..n_max and test the coefficient claims:
    (a) a_0=0 and a_1=1, (b) positivity, (c) log-concavity, (d) the peak
    sits at ceil(n/2)."""
    t0 = time.monotonic()
    if natural_int(n_max, "n_max") < 2:
        raise BadParameterError(f"n_max must be >= 2, got {n_max}")
    total = n_max - 1
    resolved = require_budget(total, budget, "expansions")

    table: dict = {}
    cx = []
    for n in range(2, n_max + 1):
        poly = expand_binomial((1,), n, budget=resolved)
        table[str(n)] = list(poly.coefficients)
        bad = _coefficient_failures(n, poly.coefficients)
        if bad:
            cx.append({
                "u": [1],
                "w": [],
                "detail": f"n={n}, coefficients {list(poly.coefficients)}: " + "; ".join(bad),
            })
    return _report("coeffs", {"n_max": n_max, "budget": resolved}, t0, total, cx, True,
                   {"coefficients": table})


def _rc_members(pairs: list, cfg: SweepConfig, fill_settled: bool) -> tuple:
    """One member pass over the sides u, v = rc_m(u, m) of every (u, m)
    pair, in order, with the members of side i counted in tableaux[i].

    A pair with m >= w_alphabet cannot fail: with every entry <= m, tau_m
    is the m-evacuation P(w) -> P(rc_m(w)), and rc_m reverses products
    and keeps Knuth classes (Schutzenberger), so uw == wu gives
    rc_m(u)rc_m(w) == rc_m(w)rc_m(u).  Its sides are filled only when
    fill_settled is set, to be counted, and no image is tested.

    Every other pair has m < w_alphabet, so tau_m maps a tableau with n
    cells over [w_alphabet] to another one, and the image of a member of
    C(u) is in P(C(v)) exactly when it is in v's fill B of length n.  A
    side's failures depend on its word, m and n alone (its other side is
    rc_m(side, m)), so they go in one table keyed (side, m, n).  The
    first side u of each {u, v} reads u's fill A and B and settles both
    entries by comparing sets: u fails on the a in A with tau_m(a) not in
    B, and v on B minus tau_m(A), since tau_m is an involution; tau_m of
    a failing b is taken only for its detail.  Every later side of {u, v},
    in any pair, reads no fill and takes its entry from the table.
    Returns _sweep_members's triple and tableaux."""
    sides = [side for u, m in pairs for side in (u, rc_m(u, m))]
    tableaux = [0] * len(sides)
    known = set()
    reads = []
    for p, (u, m) in enumerate(pairs):
        if m >= cfg.w_alphabet:
            reads += [(2 * p,), (2 * p + 1,)] if fill_settled else [(), ()]
        elif (u, m) in known:
            reads += [(), ()]
        else:
            known.update(((u, m), (sides[2 * p + 1], m)))
            reads += [(2 * p, 2 * p + 1), ()]
    failures: dict = {}

    def judge(i, n, fills):
        for j, fill in zip(reads[i], fills):
            tableaux[j] += len(fill)
        m = pairs[i // 2][1]
        if m >= cfg.w_alphabet:
            return []
        if reads[i]:
            u, v = sides[i], sides[i + 1]
            a_fill, b_fill = fills
            images = [tau_m(a, m) for a in a_fill]
            b_rows = {b.rows for b in b_fill}
            image_rows = {image.rows for image in images}
            failures[u, m, n] = [(a, _rc_detail(image, m, v)) for a, image in zip(a_fill, images)
                                 if image.rows not in b_rows]
            failures[v, m, n] = [(b, _rc_detail(tau_m(b, m), m, u)) for b in b_fill
                                 if b.rows not in image_rows]
        return failures[sides[i], m, n]

    return _sweep_members(sides, cfg, judge, reads), tableaux


def _rc_detail(image, m: int, target) -> str:
    return (f"tau_{m} image with row word [{format_word(image.row_word())}] is not in "
            f"C({format_word(target)})")


def check_rc(u: Iterable[int], m: int, cfg: SweepConfig) -> SweepReport:
    """Both containments of the reverse-complement conjecture on the w
    range: tau_m(P-tableau) of every range word in C(u) must belong to
    the full set P(C(RC_m(u))), and symmetrically.  The images are
    compared with the other side's member tableaux of the same length,
    which is exact for every pair still tested (see _rc_members).  A pair
    with m >= w_alphabet holds by a theorem, and no image is tested; its
    sides are still filled, since the report counts their member
    tableaux."""
    t0 = time.monotonic()
    u = word(u)
    if u and max(u) > m:
        raise MaxEntryExceedsMError(f"need max(u) <= m, got max {max(u)} with m = {m}")
    (checked, cx, complete), tableaux = _rc_members([(u, m)], cfg, fill_settled=True)
    return _report("rc", cfg.echo(u=list(u), m=m), t0, checked, cx, complete,
                   {"c_u_tableaux": tableaux[0], "c_rc_tableaux": tableaux[1]})


def rc_pairs(cfg: SweepConfig) -> list:
    """(u, m) pairs in range: u from the u range, max(u) <= m, and
    m + |u| bounded by u_sum_bound when set (else m = max(u) only)."""
    pairs = []
    for u in _u_range(cfg):
        lo = max(u)
        hi = cfg.u_sum_bound - len(u) if cfg.u_sum_bound is not None else lo
        for m in range(lo, hi + 1):
            pairs.append((u, m))
    return pairs


def check_rc_sweep(cfg: SweepConfig) -> SweepReport:
    """The rc containments over every (u, m) pair in range, in one member
    pass: the report is check_rc's over the pairs, merged in order.  The
    pairs with m >= w_alphabet, which cannot fail, get no fill, since the
    sweep reports no member counts."""
    t0 = time.monotonic()
    pairs = rc_pairs(cfg)
    (checked, cx, complete), _ = _rc_members(pairs, cfg, fill_settled=False)
    return _report("rc", cfg.echo(), t0, checked, cx, complete, {"pairs": len(pairs)})

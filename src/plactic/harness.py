"""Sweep engine for the four conjectures.

The maxri, stability and rc checks list the insertion tableaux of the
members of C(u) in the w range with the kernel's tableau fill, one fill
per distinct (u, length), and test each tableau once: membership and the
conjectures' tests read P(w) alone.  The rc sweep is one such pass over
the two sides of every (u, m) pair.  Only a tableau that fails is expanded
into the words of its Knuth class.  Each check returns a SweepReport.
Reports serialize to a canonical JSON form that is byte-stable across
reruns; wall-clock time is kept on the report object and pinned to 0 in
the JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator

from . import _kernels
from .centralizer import centralizer_tableaux, default_budget, in_centralizer, require_budget
from .enumeration import expand_binomial
from .errors import BadParameterError, MaxEntryExceedsMError
from .involutions import rc_m, tau_m
from .rsk import p_tableau
from .tableau import Word, f_lambda, format_word, word

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
        for name in ("u_alphabet", "u_length", "w_alphabet", "w_length", "k_bound"):
            if getattr(self, name) < 1:
                raise BadParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.u_sum_bound is not None and self.u_sum_bound < 1:
            raise BadParameterError(f"u_sum_bound must be >= 1, got {self.u_sum_bound}")
        if self.budget is not None and self.budget <= 0:
            raise BadParameterError(f"budget must be positive, got {self.budget}")

    def resolved_budget(self) -> int:
        return self.budget if self.budget is not None else default_budget()

    def echo(self, **extra) -> dict:
        out = {
            "u_alphabet": self.u_alphabet,
            "u_length": self.u_length,
            "u_sum_bound": self.u_sum_bound,
            "w_alphabet": self.w_alphabet,
            "w_length": self.w_length,
            "k_bound": self.k_bound,
            "budget": self.resolved_budget(),
        }
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


def words_up_to(alphabet: int, max_len: int, min_len: int = 0) -> Iterator[Word]:
    """Words over [alphabet] by length, lexicographic within a length."""
    for n in range(min_len, max_len + 1):
        for letters in product(range(1, alphabet + 1), repeat=n):
            yield letters


def count_words_up_to(alphabet: int, max_len: int, min_len: int = 0) -> int:
    """The number of words words_up_to lists, as a closed geometric sum."""
    lengths = max_len + 1 - min_len
    if lengths <= 0:
        return 0
    if alphabet == 1:
        return lengths
    return alphabet**min_len * (alphabet**lengths - 1) // (alphabet - 1)


def _u_range(cfg: SweepConfig) -> list:
    out = []
    for u in words_up_to(cfg.u_alphabet, cfg.u_length, min_len=1):
        if cfg.u_sum_bound is not None and max(u) + len(u) > cfg.u_sum_bound:
            continue
        out.append(u)
    return out


def _sweep_members(us: list, cfg: SweepConfig, test: Callable) -> tuple:
    """Call test(i, t) once on every insertion tableau t of the members of
    C(us[i]) within the w range, after one budget check on the
    len(us) * (words in the w range) pairs of the whole sweep.

    The tableaux come from one kernel fill per distinct (u, length): a
    word that recurs in us reuses its fill, which is kept only until the
    last block that reads it.  test returns None when t passes, else the
    detail of a counterexample; every word of a failing tableau's Knuth
    class then gives a payload, and a block's payloads are put in word
    order.  Returns (checked, counterexamples, complete), where checked
    counts the words of every finished (us[i], length) block.  This is the
    one place an interrupt is caught: it ends the sweep inside the block
    it hits, which is not counted.
    """
    n_w = count_words_up_to(cfg.w_alphabet, cfg.w_length)
    budget = require_budget(len(us) * n_w, cfg.budget, "(u, w) pairs in the sweep")
    last = {u: i for i, u in enumerate(us)}
    fills: dict = {}
    checked = 0
    counterexamples = []
    try:
        for i, u in enumerate(us):
            for n in range(cfg.w_length + 1):
                if (u, n) not in fills:
                    fills[u, n] = centralizer_tableaux(u, n, cfg.w_alphabet, budget=budget)
                tableaux = fills[u, n] if last[u] > i else fills.pop((u, n))
                block = len(counterexamples)
                for t in tableaux:
                    detail = test(i, t)
                    if detail is not None:
                        counterexamples.extend(
                            {"u": list(u), "w": list(w), "detail": detail}
                            for w in _kernels.class_words([t.rows], t.size)
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
    (number of rows of P(u)) rows of P(w) must have entries <= max(u)."""
    t0 = time.monotonic()
    us = _u_range(cfg)
    bounds = [(max(u), len(p_tableau(u).rows)) for u in us]

    def test(i, t):
        m, ell = bounds[i]
        rows = t.rows
        for r in range(min(ell, len(rows))):
            if rows[r][-1] > m:
                return f"row {r + 1} of the P-tableau has max {rows[r][-1]} > max(u) = {m}"
        return None

    checked, cx, complete = _sweep_members(us, cfg, test)
    return _report("maxri", cfg.echo(), t0, checked, cx, complete, {"u_words": len(us)})


def check_stability(u: Iterable[int], cfg: SweepConfig) -> SweepReport:
    """Compute S_k = C(u^k) within the w range for k = 1..k_bound and
    report the smallest K (resp. L) from which the containments
    S_k <= S_{k+1} (resp. equalities) all hold through the range, along
    with every containment failure.  K or L is k_bound when nothing
    below it worked (vacuously: no containment left to check)."""
    t0 = time.monotonic()
    u = word(u)
    sets: dict = {k: set() for k in range(1, cfg.k_bound + 1)}

    def test(i, t):
        sets[i + 1].add(t)

    # The sets hold insertion tableaux; each stands for f^shape words.
    checked, _, complete = _sweep_members([u * k for k in sets], cfg, test)
    observed: dict = {"set_sizes": [sum(f_lambda(t.shape) for t in sets[k]) for k in sets]}
    if complete:
        non_containments = []
        bad_containment = 0
        bad_equality = 0
        for k in range(1, cfg.k_bound):
            diff = sets[k] - sets[k + 1]
            if diff:
                witness = min(_kernels.class_words([t.rows], t.size)[0] for t in diff)
                bad_containment = k
                non_containments.append({"k": k, "w": list(witness)})
            if sets[k] != sets[k + 1]:
                bad_equality = k
        observed["K"] = bad_containment + 1 if bad_containment else 1
        observed["L"] = bad_equality + 1 if bad_equality else 1
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
    if n_max < 2:
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


def _rc_members(pairs: list, cfg: SweepConfig) -> tuple:
    """One member pass over the sides u, rc_m(u, m) of every (u, m) pair,
    in order.  Side i maps tau_m of each member tableau, m from pair
    i // 2, into the other side of its pair.  Returns _sweep_members's
    triple and the count of member tableaux of each side."""
    sides = [side for u, m in pairs for side in (u, rc_m(u, m))]
    tableaux = [0] * len(sides)

    def test(i, t):
        tableaux[i] += 1
        m = pairs[i // 2][1]
        image = tau_m(t, m)
        target = sides[i ^ 1]
        if in_centralizer(target, image.row_word()):
            return None
        return (f"tau_{m} image with row word [{format_word(image.row_word())}] is not in "
                f"C({format_word(target)})")

    return _sweep_members(sides, cfg, test), tableaux


def check_rc(u: Iterable[int], m: int, cfg: SweepConfig) -> SweepReport:
    """Both containments of the reverse-complement conjecture on the w
    range: tau_m(P-tableau) of every range word in C(u) must belong to
    the full set P(C(RC_m(u))), and symmetrically.  Membership on the
    right is decided through the row word, so the test never depends on
    whether that tableau happens to be reachable inside the w range."""
    t0 = time.monotonic()
    u = word(u)
    if u and max(u) > m:
        raise MaxEntryExceedsMError(f"need max(u) <= m, got max {max(u)} with m = {m}")
    (checked, cx, complete), tableaux = _rc_members([(u, m)], cfg)
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
    pass: the report is check_rc's over the pairs, merged in order."""
    t0 = time.monotonic()
    pairs = rc_pairs(cfg)
    (checked, cx, complete), _ = _rc_members(pairs, cfg)
    return _report("rc", cfg.echo(), t0, checked, cx, complete, {"pairs": len(pairs)})

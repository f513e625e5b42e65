"""Output oracles, run outside the timed region.

Each check takes a job and the text it printed and returns a list of
problems; an empty list means the output passed.  The oracles are
independent routes to the same answer: the shape-sum count for the
brute-force scan, the brute-force scan for the binomial expansion, and
the pure-Python RSK insertion for the kernel's insertion tableau.
"""

from __future__ import annotations

import json

import plactic
from plactic import (
    count_by_shapes,
    count_centralizer_words,
    family_of_word,
    p_tableau,
    parse_word,
    rsk_pair,
)
from plactic.enumeration import BinomialPoly

# Membership of collected words is re-derived for every STRIDE-th word.
COLLECT_STRIDE = 97
# Brute-force scans that check an expansion stay within this many words.
EXPAND_SCAN_CAP = 4096


def _p_rows(w):
    return rsk_pair(w)[0].rows


def _commutes_by_rsk(u, w):
    return _p_rows(u + w) == _p_rows(w + u)


def check_sweep(job, text):
    report = json.loads(text)
    problems = []
    if report["verdict"] != "holds":
        problems.append(f"verdict {report['verdict']!r}, expected 'holds'")
    if report["checked"] != job.items:
        problems.append(f"checked {report['checked']} pairs, the ranges hold {job.items}")
    return problems


def check_scan(job, text):
    cmd, u, n, m = job.args[0], parse_word(job.args[1]), int(job.args[3]), int(job.args[5])
    out = json.loads(text)
    problems = []
    if cmd == "centralizer":
        words = [tuple(w) for w in out["words"]]
        found = len(words)
        if any(a >= b for a, b in zip(words, words[1:])):
            problems.append("words are not strictly increasing")
        if any(len(w) != n or min(w) < 1 or max(w) > m for w in words):
            problems.append(f"a word is not in [{m}]^{n}")
        for w in words[::COLLECT_STRIDE]:
            if not _commutes_by_rsk(u, w):
                problems.append(f"{w} does not commute with {u}")
    else:
        found = out["count"]
    try:
        family = family_of_word(u)
    except plactic.UnsupportedFamilyError:
        return problems  # no shape-sum route; the committed checksum covers it
    expected = count_by_shapes(family, n, m)
    if found != expected:
        problems.append(f"{found} words, the shape sum gives {expected}")
    return problems


def check_expand(job, text):
    u, n = parse_word(job.args[1]), int(job.args[3])
    poly = BinomialPoly(tuple(json.loads(text)["coefficients"]))
    # The count is polynomial in m from m = max(u) on.
    problems = []
    for m in range(max(u), max(u) + 3):
        if m > max(u) and m**n > EXPAND_SCAN_CAP:
            break
        brute = count_centralizer_words(u, n, m)
        if poly(m) != brute:
            problems.append(f"polynomial gives {poly(m)} at m={m}, the scan counts {brute}")
    return problems


def _check_long_cli(job, text):
    out = json.loads(text)
    cmd = job.args[0]
    if cmd == "ptab":
        w = parse_word(job.args[1])
        if tuple(map(tuple, out["rows"])) != _p_rows(w):
            return ["P differs from the P of rsk_pair"]
        return []
    if cmd == "commutes":
        u, w = parse_word(job.args[1]), parse_word(job.args[2])
        if out["commutes"] != _commutes_by_rsk(u, w):
            return [f"commutes={out['commutes']}, rsk_pair disagrees"]
        return []
    # count with a letter beyond C int: order-isomorphic to the same count
    # with that letter replaced by max + 1
    u, n, m = parse_word(job.args[1]), int(job.args[3]), int(job.args[5])
    small = tuple(a if a <= m else m + 1 for a in u)
    expected = count_centralizer_words(small, n, m)
    if out["count"] != expected:
        return [f"count {out['count']}, the relabelled word {small} gives {expected}"]
    return []


def check_long(job, text):
    if job.kind == "cli":
        return _check_long_cli(job, text)
    out = json.loads(text)
    if job.kind == "rsk":
        w = job.args
        problems = []
        if tuple(out["w"]) != w:
            problems.append("inverse_rsk(rsk_pair(w)) != w")
        if tuple(map(tuple, out["p"])) != p_tableau(w).rows:
            problems.append("P of rsk_pair differs from the kernel's p_tableau")
        return problems
    u, w = job.args
    if tuple(map(tuple, out["rows"])) != _p_rows(u + w):
        return ["p_via_jdt(u, w) differs from P(uw)"]
    return []


CHECKS = {"sweep": check_sweep, "scan": check_scan, "expand": check_expand, "long": check_long}


def check(workload, job, exit_code, text):
    if exit_code != 0:
        return []  # the exit code is compared by the caller
    try:
        return CHECKS[workload](job, text)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable or malformed output
        return [f"output rejected: {exc!r}"]

"""Job lists for the four benchmark workloads.

This module does not import plactic: the driver uses it to size runs, the
worker to run them.  A job's ``items`` is its share of the workload's unit
of work.  ``fixed`` jobs have seed-independent inputs and a committed
checksum in expected.json; the others come from the seed and are checked by
oracles alone.
"""

from __future__ import annotations

import random
from itertools import product
from typing import NamedTuple

WORKLOADS = ("sweep", "scan", "expand", "long")

# Every sweep job passes an explicit budget, so PLACTIC_BUDGET cannot change
# the echoed config, and two shards, which must not change a byte (the
# acceptance suite's shard-determinism criterion).
SWEEP_FLAGS = ["--json", "--shards", "2", "--budget", "1000000"]

ITEM_UNITS = {
    "sweep": "(u, w) pairs checked",
    "scan": "words scanned (m^n per job)",
    "expand": "binomial expansions",
    "long": "letters inserted",
}


class Job(NamedTuple):
    id: str
    kind: str  # "cli" (argv for cli_dispatch), "rsk" (word), "jdt" ((u, w))
    args: object
    items: int
    fixed: bool


def _cli(argv, items, fixed=True, name=None) -> Job:
    return Job(name or " ".join(argv), "cli", list(argv), items, fixed)


def _n_words(alphabet: int, max_len: int) -> int:
    return sum(alphabet**n for n in range(max_len + 1))


def _u_words(alphabet: int, max_len: int):
    for n in range(1, max_len + 1):
        yield from product(range(1, alphabet + 1), repeat=n)


def sweep_jobs() -> list:
    n7 = _n_words(3, 7)
    n6 = _n_words(3, 6)
    n_u = sum(1 for _ in _u_words(3, 3))
    # rc sweep: (u, m) with max(u) <= m and m + |u| <= 5
    rc_pairs = sum(5 - len(u) - max(u) + 1 for u in _u_words(3, 3) if max(u) + len(u) <= 5)
    w7 = ["--w-alphabet", "3", "--w-length", "7"]
    return [
        _cli(["conjecture", "maxri", "--u-alphabet", "3", "--u-length", "3", *w7, *SWEEP_FLAGS],
             n_u * n7),
        _cli(["conjecture", "stability", "--u", "21", "--k-bound", "4", *w7, *SWEEP_FLAGS], 4 * n7),
        _cli(["conjecture", "stability", "--u", "212", "--k-bound", "3", *w7, *SWEEP_FLAGS], 3 * n7),
        _cli(["conjecture", "rc", "--u-alphabet", "3", "--u-length", "3", "--u-sum", "5",
              "--w-alphabet", "3", "--w-length", "6", *SWEEP_FLAGS], 2 * n6 * rc_pairs),
    ]


SCAN_CONFIGS = (
    ("count", "213", 10, 3),
    ("count", "21", 9, 4),
    ("count", "321", 7, 5),
    ("count", "12", 8, 4),
    ("centralizer", "1", 9, 4),
)


def scan_jobs() -> list:
    return [
        _cli([cmd, u, "--len", str(n), "--max", str(m), "--json"], m**n)
        for cmd, u, n, m in SCAN_CONFIGS
    ]


# u -> number of constrained rows of its family (the smallest valid n)
EXPAND_FAMILIES = (("1", 1), ("2", 1), ("3", 1), ("21", 2), ("321", 3), ("12", 2))
EXPAND_MAX_LEN = 10  # the linear-extension bound of the shape sum


def expand_jobs() -> list:
    return [
        _cli(["expand", u, "--len", str(n), "--json"], 1)
        for u, r in EXPAND_FAMILIES
        for n in range(r, EXPAND_MAX_LEN + 1)
    ]


LONG_ALPHABETS = (100, 10**4, 2**40)
BIG_LETTER = 2**40  # beyond C int and C long on 32-bit builds
LONG_COUNT = ("count", f"{BIG_LETTER},1", 8, 3)


def _fmt(w) -> str:
    return ",".join(map(str, w))


def long_jobs(seed: int) -> list:
    """Seeded long words; lengths are fixed so every seed costs the same."""
    rng = random.Random(f"long:{seed}")
    jobs = []

    def rand_word(alphabet, n):
        return [rng.randint(1, alphabet) for _ in range(n)]

    for a in LONG_ALPHABETS:
        for n in (1000, 1500, 2000):
            jobs.append(_cli(["ptab", _fmt(rand_word(a, n)), "--json"], n, False,
                             f"ptab alphabet={a} len={n}"))
    for a in LONG_ALPHABETS:
        u, w = rand_word(a, 1000), rand_word(a, 1000)
        w2 = rand_word(a, 750)
        # u = w2 w2 commutes with w2: a true answer beside the (almost surely) false one
        for name, (u, w) in (("random", (u, w)), ("power", (w2 + w2, w2))):
            jobs.append(_cli(["commutes", _fmt(u), _fmt(w), "--json"], 2 * (len(u) + len(w)), False,
                             f"commutes {name} alphabet={a} len={len(u)}+{len(w)}"))
    for a in LONG_ALPHABETS:
        for n in (1000, 2000):
            w = tuple(rand_word(a, n))
            jobs.append(Job(f"rsk_pair+inverse_rsk alphabet={a} len={n}", "rsk", w, 2 * n, False))
    for a in LONG_ALPHABETS:
        for i in range(4):
            u, w = tuple(rand_word(a, 60)), tuple(rand_word(a, 60))
            jobs.append(Job(f"p_via_jdt alphabet={a} #{i}", "jdt", (u, w), 120, False))
    cmd, u, n, m = LONG_COUNT
    jobs.append(_cli([cmd, u, "--len", str(n), "--max", str(m), "--json"], n * m**n))
    return jobs


def jobs_for(workload: str, seed: int) -> list:
    if workload == "sweep":
        return sweep_jobs()
    if workload == "scan":
        return scan_jobs()
    if workload == "expand":
        return expand_jobs()
    if workload == "long":
        return long_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

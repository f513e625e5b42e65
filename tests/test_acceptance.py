"""Acceptance suite.

One test per release criterion; each prints a single
``[acceptance] criterion N (name): PASS`` (or FAIL) line on the real
terminal so a run of ``pytest -v`` shows the checklist at a glance.
All comparisons are exact integers.
"""

import itertools
from contextlib import contextmanager

from plactic import (
    SweepConfig,
    Tableau,
    bender_knuth,
    centralizer_words,
    check_coefficients,
    check_max_ri,
    check_rc,
    check_rc_sweep,
    check_stability,
    count_by_shapes,
    count_centralizer_words as count_centralizer,
    dominates,
    evacuation_m,
    in_centralizer,
    knuth_class,
    p_tableau,
    p_via_jdt,
    rc_m,
    rectify_steps,
    single,
    southwest_concat,
    tau_m,
)
from plactic import test_c1_lwi as c1_lwi
from plactic import test_c12 as c12
from plactic import test_c212 as c212
from plactic import test_single_letter_cols as single_letter_cols
from plactic import test_single_letter_rows as single_letter_rows
from plactic import test_staircase as staircase_test
from plactic.cli import cli_dispatch
from plactic.enumeration import binom, iter_ssyt
from plactic.harness import _u_range
from plactic.tableau import iter_partitions

from helpers import knuth_class_oracle, rectify_lowest_corner_first, words_over


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({name}): PASS")


EXPANSION_LINES = {
    1: "1",
    2: "C(m,1)",
    3: "C(m,1) + C(m,2)",
    4: "C(m,1) + 4*C(m,2) + C(m,3)",
    5: "C(m,1) + 8*C(m,2) + 13*C(m,3) + C(m,4)",
    6: "C(m,1) + 18*C(m,2) + 48*C(m,3) + 41*C(m,4) + C(m,5)",
    7: "C(m,1) + 33*C(m,2) + 178*C(m,3) + 262*C(m,4) + 131*C(m,5) + C(m,6)",
    8: "C(m,1) + 68*C(m,2) + 549*C(m,3) + 1480*C(m,4) + 1405*C(m,5) + 428*C(m,6) + C(m,7)",
}


def test_criterion_01_expansion_table(capsys):
    with criterion(capsys, 1, "binomial expansion table"):
        for n, expected in EXPANSION_LINES.items():
            code = cli_dispatch(["expand", "1", "--len", str(n)])
            out = capsys.readouterr().out
            assert code == 0
            assert out == expected + "\n", (n, out)
        # the shape-sum path agrees with brute force where brute force
        # is affordable
        for n in range(0, 6):
            for m in range(0, 6):
                assert count_by_shapes(single(1), n, m) == count_centralizer((1,), n, m)


def test_criterion_02_central_binomial(capsys):
    with criterion(capsys, 2, "central binomial counts"):
        for n in range(0, 13):
            assert count_centralizer((1,), n, 2) == binom(n, n // 2)


def test_criterion_03_shift_invariance(capsys):
    with criterion(capsys, 3, "single letter shift invariance"):
        for m in range(1, 5):
            for u in range(1, m + 1):
                for n in range(0, 6):
                    assert count_centralizer((u,), n, m) == count_centralizer((1,), n, m)
            for u in range(m + 1, 6):
                for n in range(0, 6):
                    assert count_centralizer((u,), n, m) == (1 if n == 0 else 0)


def test_criterion_04_characterization_suite(capsys):
    with criterion(capsys, 4, "characterizations equal the oracle"):
        for w in words_over(4, 6):
            for u in (1, 2, 3, 4):
                expect = in_centralizer((u,), w)
                assert single_letter_rows(u, w) == expect
                assert single_letter_cols(u, w) == expect
            assert c1_lwi(w) == in_centralizer((1,), w)
            assert c12(w) == in_centralizer((1, 2), w)
            assert c212(w) == in_centralizer((2, 1, 2), w)
            for m in (2, 3):
                assert staircase_test(m, w) == in_centralizer(tuple(range(m, 0, -1)), w)
            for a in (1, 2, 3):
                for k in (1, 2, 3):
                    assert single_letter_cols(a, w) == in_centralizer((a,) * k, w)


def test_criterion_05_jdt_agreement_and_confluence(capsys):
    with criterion(capsys, 5, "jdt agrees with insertion and is confluent"):
        for total in range(0, 8):
            for lu in range(0, total + 1):
                for u in itertools.product((1, 2, 3), repeat=lu):
                    for w in itertools.product((1, 2, 3), repeat=total - lu):
                        expect = p_tableau(u + w)
                        assert p_via_jdt(u, w) == expect
                        s = southwest_concat(p_tableau(u), p_tableau(w))
                        assert rectify_lowest_corner_first(s) == expect
        pool = [Tableau(())]
        for n in range(1, 4):
            for lam in iter_partitions(n):
                pool.extend(iter_ssyt(lam, 3))
        for a in pool:
            for b in pool:
                rectify_lowest_corner_first(southwest_concat(a, b))


def test_criterion_06_knuth_classes(capsys):
    with criterion(capsys, 6, "Knuth classes and closure"):
        from collections import defaultdict

        by_tableau = defaultdict(set)
        words = list(words_over(3, 6))
        for w in words:
            by_tableau[p_tableau(w)].add(w)
        for w in words:
            assert knuth_class_oracle(w) == by_tableau[p_tableau(w)]
            assert knuth_class(w) == by_tableau[p_tableau(w)]
        for u in ((1,), (2,), (1, 2), (2, 1), (2, 1, 2), (3, 2, 1)):
            for n in range(0, 7):
                members = set(centralizer_words(u, n, 3))
                for w in members:
                    assert knuth_class(w) <= members


def row_letter_counts(state, letter):
    return tuple(sum(1 for v in row if v == letter) for row in state.rows)


def test_criterion_07_structure_lemmas(capsys):
    with criterion(capsys, 7, "insertion structure lemmas"):
        # appending tightens alpha from the right, prepending from the left
        for w in words_over(4, 5):
            pw = p_tableau(w)
            for a in range(1, 5):
                pwa = p_tableau(w + (a,))
                paw = p_tableau((a,) + w)
                for b in range(1, 5):
                    if a == b:
                        continue
                    assert dominates(pwa.alpha(b), pw.alpha(b))
                    assert dominates(pw.alpha(b), paw.alpha(b))
        # letters absent from u stay in their row while rectifying P(u)|P(w)
        for total in range(0, 7):
            for lu in range(0, total + 1):
                for u in itertools.product((1, 2, 3), repeat=lu):
                    foreign = [b for b in (1, 2, 3) if b not in set(u)]
                    for w in itertools.product((1, 2, 3), repeat=total - lu):
                        if not foreign or not in_centralizer(u, w):
                            continue
                        steps = rectify_steps(southwest_concat(p_tableau(u), p_tableau(w)))
                        for before, after in zip(steps, steps[1:]):
                            for b in foreign:
                                x = row_letter_counts(before, b)
                                y = row_letter_counts(after, b)
                                pad = max(len(x), len(y))
                                assert x + (0,) * (pad - len(x)) == y + (0,) * (pad - len(y))
        # descending runs in u cap the first rows of every member of C(u)
        ws = list(words_over(4, 4))
        for u in words_over(4, 4, min_len=1):
            m = max(u)
            k, need = 0, m
            for a in u:
                if a == need:
                    k += 1
                    need -= 1
            for w in ws:
                if not in_centralizer(u, w):
                    continue
                rows = p_tableau(w).rows
                for i in range(min(k, len(rows))):
                    assert max(rows[i]) <= m


def test_criterion_08_involutions(capsys):
    with criterion(capsys, 8, "involution suite"):
        assert rc_m((3, 1, 1, 2, 2), 4) == (3, 3, 4, 4, 2)
        tableaux_by_cells = {}
        for cells in range(0, 8):
            acc = [Tableau(())] if cells == 0 else []
            for lam in iter_partitions(cells):
                acc.extend(iter_ssyt(lam, 4))
            tableaux_by_cells[cells] = acc
        small = [t for c in range(0, 7) for t in tableaux_by_cells[c]]
        for t in small:
            for u in (1, 2, 3, 4):
                s = bender_knuth(t, u)
                assert s.shape == t.shape
                assert bender_knuth(s, u) == t
            for m in (1, 2, 3, 4):
                s = tau_m(t, m)
                assert s.shape == t.shape
                assert tau_m(s, m) == t
        for m in (1, 2, 3, 4):
            for c in range(0, 8):
                for t in tableaux_by_cells[c]:
                    if t.max_entry() <= m:
                        assert evacuation_m(t, m).shape == t.shape
        for w in words_over(4, 4):
            for m in (1, 2, 3, 4):
                assert rc_m(rc_m(w, m), m) == w
        # the u <-> u+1 swap bijects the all-columns-contain-u tableaux
        # onto the all-columns-contain-(u+1) ones
        for m in (2, 3, 4):
            fives = [
                t
                for c in range(1, 6)
                for t in tableaux_by_cells[c]
                if t.max_entry() <= m
            ]
            for u in range(1, m):
                src = [t for t in fives if all(u in col for col in t.columns())]
                dst = {t.rows for t in fives if all(u + 1 in col for col in t.columns())}
                images = {bender_knuth(t, u).rows for t in src}
                assert images <= dst
                assert len(images) == len(src) == len(dst)


def test_criterion_09_conjecture_reproduction(capsys):
    with criterion(capsys, 9, "conjecture sweeps at desk scale"):
        cfg = SweepConfig(
            u_alphabet=6, u_length=6, u_sum_bound=7, w_alphabet=4, w_length=5
        )
        report = check_max_ri(cfg)
        assert report.verdict == "holds"
        assert report.checked == 285285
        assert report.observed == {"u_words": 209}

        stab_cfg = SweepConfig(w_alphabet=4, w_length=5, k_bound=4)
        small_us = _u_range(SweepConfig(u_alphabet=4, u_length=4, u_sum_bound=5))
        assert len(small_us) == 22
        for u in small_us:
            rep = check_stability(u, stab_cfg)
            assert rep.verdict == "holds"
            assert rep.observed["K"] == 1, u
        big = check_stability(
            (1, 2, 3, 4, 5), SweepConfig(w_alphabet=5, w_length=6, k_bound=5)
        )
        assert big.verdict == "holds"
        assert big.observed["K"] == 3
        assert big.observed["L"] == 4
        assert big.observed["set_sizes"] == [8, 40, 66, 126, 126]
        assert big.observed["non_containments"] == [{"k": 2, "w": [1, 3, 2, 5, 4]}]

        coeff = check_coefficients(8)
        assert coeff.verdict == "holds"
        assert coeff.checked == 7

        rc_cfg = SweepConfig(
            u_alphabet=6, u_length=6, u_sum_bound=7, w_alphabet=4, w_length=4
        )
        rc_rep = check_rc_sweep(rc_cfg)
        assert rc_rep.verdict == "holds"
        assert rc_rep.observed == {"pairs": 308}
        assert rc_rep.checked == 210056


def test_criterion_10_backend_determinism(capsys, reload_kernels):
    with criterion(capsys, 10, "reports identical under the pure and C backends"):
        checks = (
            lambda: check_max_ri(SweepConfig(
                u_alphabet=3, u_length=3, u_sum_bound=5, w_alphabet=3, w_length=4)),
            lambda: check_stability((1, 2), SweepConfig(w_alphabet=3, w_length=4)),
            # a non-containment, whose witness comes from class_words
            lambda: check_stability((1, 2, 3, 4, 5), SweepConfig(
                w_alphabet=5, w_length=5, k_bound=3)),
            lambda: check_rc((1,), 2, SweepConfig(w_alphabet=3, w_length=4)),
            lambda: check_rc_sweep(SweepConfig(
                u_alphabet=2, u_length=2, u_sum_bound=4, w_alphabet=3, w_length=3)),
            # claim (d) fails at n = 10
            lambda: check_coefficients(10),
        )
        assert reload_kernels("1").BACKEND == "pure"
        pure = [check().to_json() for check in checks]
        assert reload_kernels(None).BACKEND == "c"
        assert [check().to_json() for check in checks] == pure
        assert '"non_containments":[{"k":2' in pure[2]
        assert '"verdict":"counterexample"' in pure[5]


def test_criterion_10_shard_determinism(capsys):
    # --shards is accepted and ignored; every sweep prints the same bytes
    # whatever count it is given, and the same as without the flag.
    sweeps = (
        ["maxri", "--u-alphabet", "3", "--u-length", "3", "--u-sum", "5",
         "--w-alphabet", "3", "--w-length", "4"],
        ["stability", "--u", "12", "--w-alphabet", "3", "--w-length", "4"],
        ["rc", "--u", "1", "--m", "2", "--w-alphabet", "3", "--w-length", "4"],
        ["rc", "--u-alphabet", "2", "--u-length", "2", "--u-sum", "4",
         "--w-alphabet", "3", "--w-length", "3"],
        ["coeffs", "--n-max", "6"],
    )
    with criterion(capsys, 10, "reports identical across --shards counts"):
        for argv in sweeps:
            outputs = []
            for shards in ([], ["--shards", "1"], ["--shards", "2"], ["--shards", "5"]):
                assert cli_dispatch(["conjecture", *argv, "--json", *shards]) == 0
                outputs.append(capsys.readouterr().out)
            assert len(set(outputs)) == 1, argv
            assert '"verdict":"holds"' in outputs[0], argv

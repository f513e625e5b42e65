import dataclasses

import pytest

from plactic import (
    BudgetExceededError,
    SweepConfig,
    SweepReport,
    Tableau,
    check_coefficients,
    check_max_ri,
    check_rc,
    check_rc_sweep,
    check_stability,
    in_centralizer,
    rc_m,
)
from plactic.centralizer import require_budget
from plactic.enumeration import iter_ssyt
from plactic.cli import cli_dispatch
from plactic.harness import (
    _coefficient_failures,
    _u_range,
    _verdict,
    count_words_up_to,
    rc_pairs,
    words_up_to,
)
from plactic.tableau import iter_partitions

from helpers import commutes_oracle, p_oracle, per_word_counterexamples, per_word_stability

GOLDEN_BUDGET = 10**6

# Canonical reports recorded from the per-pair harness (every (u, w) pair
# through in_centralizer); the scan-based sweeps must reproduce them byte
# for byte.
GOLDEN_REPORTS = [
    (
        lambda: check_max_ri(SweepConfig(
            u_alphabet=3, u_length=2, w_alphabet=3, w_length=4, budget=GOLDEN_BUDGET)),
        '{"checked":1452,"config":{"budget":1000000,"k_bound":4,"u_alphabet":3,"u_length":2,'
        '"u_sum_bound":null,"w_alphabet":3,"w_length":4},"conjecture":"maxri",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"u_words":12},"verdict":"holds"}',
    ),
    (
        lambda: check_stability((1, 2), SweepConfig(
            w_alphabet=3, w_length=4, k_bound=3, budget=GOLDEN_BUDGET)),
        '{"checked":363,"config":{"budget":1000000,"k_bound":3,"u":[1,2],"u_alphabet":4,'
        '"u_length":4,"u_sum_bound":null,"w_alphabet":3,"w_length":4},"conjecture":"stability",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"K":1,"L":1,"non_containments":[],'
        '"set_sizes":[14,14,14]},"verdict":"holds"}',
    ),
    (
        lambda: check_stability((2, 1, 2), SweepConfig(
            w_alphabet=3, w_length=4, k_bound=3, budget=GOLDEN_BUDGET)),
        '{"checked":363,"config":{"budget":1000000,"k_bound":3,"u":[2,1,2],"u_alphabet":4,'
        '"u_length":4,"u_sum_bound":null,"w_alphabet":3,"w_length":4},"conjecture":"stability",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"K":1,"L":1,"non_containments":[],'
        '"set_sizes":[17,17,17]},"verdict":"holds"}',
    ),
    (
        lambda: check_stability((1, 2, 3), SweepConfig(
            w_alphabet=3, w_length=4, k_bound=3, budget=GOLDEN_BUDGET)),
        '{"checked":363,"config":{"budget":1000000,"k_bound":3,"u":[1,2,3],"u_alphabet":4,'
        '"u_length":4,"u_sum_bound":null,"w_alphabet":3,"w_length":4},"conjecture":"stability",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"K":1,"L":2,"non_containments":[],'
        '"set_sizes":[6,10,10]},"verdict":"holds"}',
    ),
    (
        lambda: check_rc((1,), 2, SweepConfig(
            w_alphabet=3, w_length=4, budget=GOLDEN_BUDGET)),
        '{"checked":242,"config":{"budget":1000000,"k_bound":4,"m":2,"u":[1],"u_alphabet":4,'
        '"u_length":4,"u_sum_bound":null,"w_alphabet":3,"w_length":4},"conjecture":"rc",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"c_rc_tableaux":16,"c_u_tableaux":16},'
        '"verdict":"holds"}',
    ),
    (
        lambda: check_rc_sweep(SweepConfig(
            u_alphabet=2, u_length=2, u_sum_bound=4, w_alphabet=3, w_length=3,
            budget=GOLDEN_BUDGET)),
        '{"checked":800,"config":{"budget":1000000,"k_bound":4,"u_alphabet":2,"u_length":2,'
        '"u_sum_bound":4,"w_alphabet":3,"w_length":3},"conjecture":"rc","counterexamples":[],'
        '"elapsed_ms":0,"observed":{"pairs":10},"verdict":"holds"}',
    ),
]


@pytest.mark.parametrize("run, expected", GOLDEN_REPORTS)
def test_golden_reports(run, expected):
    assert run().to_json() == expected


def test_golden_report_ignores_env_budget_when_given_one(monkeypatch):
    # every per-length scan must see the sweep's own budget, not the env default
    monkeypatch.setenv("PLACTIC_BUDGET", "10")
    run, expected = GOLDEN_REPORTS[0]
    assert run().to_json() == expected


KNOWN_COEFFS = {
    "1": [1],
    "2": [0, 1],
    "3": [0, 1, 1],
    "4": [0, 1, 4, 1],
    "5": [0, 1, 8, 13, 1],
    "6": [0, 1, 18, 48, 41, 1],
    "7": [0, 1, 33, 178, 262, 131, 1],
    "8": [0, 1, 68, 549, 1480, 1405, 428, 1],
}


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(u_alphabet=0)
    with pytest.raises(ValueError):
        SweepConfig(w_length=0)
    with pytest.raises(ValueError):
        SweepConfig(budget=0)
    with pytest.raises(ValueError):
        SweepConfig(u_sum_bound=0)
    SweepConfig(u_sum_bound=None, budget=None)
    for removed in ("conjecture", "shards"):
        with pytest.raises(TypeError):
            SweepConfig(**{removed: 1})


def test_config_echo_excludes_shards():
    cfg = SweepConfig(budget=77)
    echo = cfg.echo()
    assert list(echo) == [f.name for f in dataclasses.fields(SweepConfig)] == [
        "u_alphabet", "u_length", "u_sum_bound", "w_alphabet", "w_length", "k_bound", "budget"]
    assert echo["budget"] == 77
    assert cfg.echo(u=[1, 2])["u"] == [1, 2]


def test_config_budget_env(monkeypatch):
    monkeypatch.setenv("PLACTIC_BUDGET", "123")
    assert SweepConfig().resolved_budget() == 123
    assert SweepConfig(budget=9).resolved_budget() == 9


def test_report_serialization_is_canonical():
    report = SweepReport(
        conjecture="demo",
        config={"b": 1, "a": 2},
        checked=3,
        verdict="holds",
        counterexamples=(),
        elapsed_ms=999,
        observed={"x": [1, 2]},
    )
    assert report.to_dict()["elapsed_ms"] == 0
    assert report.to_json() == (
        '{"checked":3,"config":{"a":2,"b":1},"conjecture":"demo",'
        '"counterexamples":[],"elapsed_ms":0,"observed":{"x":[1,2]},'
        '"verdict":"holds"}'
    )


class _SteppingClock:
    """Stands in for harness's time module: each read of the clock is
    0.25 s after the one before."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 0.25
        return self.now


# One run of each of the five checks.
EACH_CHECK = [GOLDEN_REPORTS[i][0] for i in (0, 1, 4, 5)] + [lambda: check_coefficients(4)]


@pytest.mark.parametrize("run", EACH_CHECK)
def test_elapsed_ms_is_measured_and_pinned_in_json(run, monkeypatch):
    """A check reads the clock at its start and at its end; the report
    keeps the 250 ms between, and its JSON still shows 0."""
    import plactic.harness as harness

    unpatched = run().to_json()
    monkeypatch.setattr(harness, "time", _SteppingClock())
    report = run()
    assert report.elapsed_ms == 250
    assert report.to_json() == unpatched
    assert '"elapsed_ms":0,' in unpatched


def test_words_up_to():
    got = list(words_up_to(2, 2))
    assert got == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert count_words_up_to(2, 2) == 7
    assert count_words_up_to(4, 5) == len(list(words_up_to(4, 5)))


def test_count_words_up_to_is_the_geometric_sum():
    for alphabet in range(0, 5):
        for min_len in range(0, 4):
            for max_len in range(0, 6):
                want = sum(alphabet**n for n in range(min_len, max_len + 1))
                assert count_words_up_to(alphabet, max_len, min_len) == want


def test_huge_sweep_is_refused_by_the_budget():
    """A pair count with more digits than Python prints is still a
    BudgetExceeded."""
    cfg = SweepConfig(u_alphabet=1, u_length=1, w_alphabet=2, w_length=20000)
    with pytest.raises(BudgetExceededError, match=r"pairs in the sweep: at least 2\^20000, over"):
        check_max_ri(cfg)


def test_each_sweep_checks_its_budget_once(monkeypatch):
    import plactic.harness as harness

    totals = []

    def recording(total, budget, what):
        totals.append(total)
        return require_budget(total, budget, what)

    monkeypatch.setattr(harness, "require_budget", recording)
    cfg = SweepConfig(u_alphabet=2, u_length=2, w_alphabet=2, w_length=2, k_bound=3)
    check_max_ri(cfg)
    check_stability((1,), cfg)
    check_rc((1,), 2, cfg)
    check_rc_sweep(cfg)
    # u range of 6 words, k_bound 3, 2 sides, 2 * len(rc_pairs) = 12 sides
    assert totals == [6 * 7, 3 * 7, 2 * 7, 2 * len(rc_pairs(cfg)) * 7]


def test_u_range_applies_sum_bound():
    cfg = SweepConfig(u_alphabet=3, u_length=3, u_sum_bound=3)
    assert _u_range(cfg) == [(1,), (2,), (1, 1)]
    cfg = SweepConfig(u_alphabet=2, u_length=1)
    assert _u_range(cfg) == [(1,), (2,)]


def test_verdict_priority():
    assert _verdict([], True) == "holds"
    assert _verdict([], False) == "incomplete"
    assert _verdict([{"u": []}], True) == "counterexample"
    assert _verdict([{"u": []}], False) == "counterexample"


def test_require_budget(monkeypatch):
    assert require_budget(10, 10, "pairs") == 10
    with pytest.raises(BudgetExceededError, match="pairs: 11, over the budget 10"):
        require_budget(11, 10, "pairs")
    monkeypatch.setenv("PLACTIC_BUDGET", "7")
    assert require_budget(7, None, "pairs") == 7
    with pytest.raises(BudgetExceededError, match="pairs in the sweep: 30, over the budget 7"):
        check_max_ri(SweepConfig(u_alphabet=2, u_length=1, w_alphabet=2, w_length=3))


def test_max_ri_small_sweep():
    cfg = SweepConfig(u_alphabet=2, u_length=2, w_alphabet=2, w_length=3)
    report = check_max_ri(cfg)
    assert report.verdict == "holds"
    assert report.checked == 6 * 15
    assert report.counterexamples == ()
    assert report.observed == {"u_words": 6}
    assert report.conjecture == "maxri"


def test_max_ri_budget():
    cfg = SweepConfig(u_alphabet=2, u_length=2, w_alphabet=2, w_length=3, budget=10)
    with pytest.raises(BudgetExceededError):
        check_max_ri(cfg)


def _reports_across_shards(capsys, argv, counts):
    """The distinct outputs of ``plactic conjecture ... --json`` under each
    ``--shards`` count.  The flag is accepted and ignored, so there is one."""
    blobs = set()
    for s in counts:
        assert cli_dispatch(["conjecture", *argv, "--json", "--shards", str(s)]) == 0
        blobs.add(capsys.readouterr().out)
    return blobs


def test_max_ri_shard_independence(capsys):
    blobs = _reports_across_shards(
        capsys,
        ["maxri", "--u-alphabet", "3", "--u-length", "2", "--w-alphabet", "3", "--w-length", "3"],
        (1, 2, 7),
    )
    cfg = SweepConfig(u_alphabet=3, u_length=2, w_alphabet=3, w_length=3)
    assert blobs == {check_max_ri(cfg).to_json() + "\n"}


def test_stability_single_letter():
    cfg = SweepConfig(w_alphabet=3, w_length=4, k_bound=3)
    report = check_stability((2,), cfg)
    assert report.verdict == "holds"
    assert report.observed["K"] == 1
    assert report.observed["L"] == 1
    assert report.observed["non_containments"] == []
    sizes = report.observed["set_sizes"]
    assert len(set(sizes)) == 1
    expected = sum(
        1 for w in words_up_to(3, 4) if in_centralizer((2,), w)
    )
    assert sizes[0] == expected
    assert report.config["u"] == [2]
    assert report.checked == 3 * count_words_up_to(3, 4)


def test_stability_shard_independence(capsys):
    blobs = _reports_across_shards(
        capsys,
        ["stability", "--u", "12", "--w-alphabet", "3", "--w-length", "3", "--k-bound", "3"],
        (1, 4),
    )
    cfg = SweepConfig(w_alphabet=3, w_length=3, k_bound=3)
    assert blobs == {check_stability((1, 2), cfg).to_json() + "\n"}


def test_stability_bookkeeping_matches_direct_sets():
    u = (1, 2)
    cfg = SweepConfig(w_alphabet=3, w_length=4, k_bound=3)
    report = check_stability(u, cfg)
    sets = [
        {w for w in words_up_to(3, 4) if in_centralizer(u * k, w)}
        for k in (1, 2, 3)
    ]
    assert report.observed["set_sizes"] == [len(s) for s in sets]
    assert report.observed["K"] == 1
    assert all(a <= b for a, b in zip(sets, sets[1:]))


def test_stability_reports_non_containments_but_still_holds(monkeypatch):
    # fabricated member fill: C(u) is everything (every tableau of the
    # block), C(u^k) for k >= 2 drops the empty word, so containment first
    # holds from K = 2
    import plactic.harness as harness

    def fake(uk, n, m, budget=None):
        if len(uk) > 1 and n == 0:
            return []
        return [t for lam in iter_partitions(n) for t in iter_ssyt(lam, m)]

    monkeypatch.setattr(harness, "centralizer_tableaux", fake)
    cfg = SweepConfig(w_alphabet=2, w_length=2, k_bound=3)
    report = check_stability((9,), cfg)
    assert report.verdict == "holds"
    assert report.observed["K"] == 2
    assert report.observed["L"] == 2
    assert report.observed["non_containments"] == [{"k": 1, "w": []}]
    assert report.observed["set_sizes"] == [7, 6, 6]


def test_stability_interrupt_marks_incomplete(monkeypatch):
    """An interrupt ends the sweep inside the (u^k, length) block it hits:
    checked counts the words of the blocks that finished before it."""
    import plactic.harness as harness

    calls = {"n": 0}

    def flaky(uk, n, m, budget=None):
        calls["n"] += 1
        if calls["n"] == 5:  # k = 2, n = 1
            raise KeyboardInterrupt
        return [t for lam in iter_partitions(n) for t in iter_ssyt(lam, m)]

    monkeypatch.setattr(harness, "centralizer_tableaux", flaky)
    cfg = SweepConfig(w_alphabet=2, w_length=2, k_bound=2)
    report = check_stability((1,), cfg)
    assert report.verdict == "incomplete"
    assert report.checked == (1 + 2 + 4) + 1
    assert "K" not in report.observed
    assert "L" not in report.observed
    assert "non_containments" not in report.observed


def test_rc_sweep_interrupt_marks_incomplete(monkeypatch):
    """An interrupt ends the rc pass inside the (side, length) block it
    hits: checked counts only the blocks that finished before it."""
    import plactic.harness as harness

    real = harness.centralizer_tableaux
    calls = {"n": 0}

    def flaky(u, n, m, budget=None):
        calls["n"] += 1
        if calls["n"] == 5:  # side (2,), n = 1
            raise KeyboardInterrupt
        return real(u, n, m, budget=budget)

    monkeypatch.setattr(harness, "centralizer_tableaux", flaky)
    cfg = SweepConfig(u_alphabet=2, u_length=1, u_sum_bound=3, w_alphabet=2, w_length=2)
    # sides (1,) (1,) | (1,) (2,) | (2,) (1,): the first three share one
    # fill per length, the fourth is interrupted after its n = 0 block
    assert rc_pairs(cfg) == [((1,), 1), ((1,), 2), ((2,), 2)]
    report = check_rc_sweep(cfg)
    assert report.verdict == "incomplete"
    assert report.checked == 3 * (1 + 2 + 4) + 1
    assert report.counterexamples == ()
    assert report.observed == {"pairs": 3}


def test_coefficients_reproduce_printed_table():
    report = check_coefficients(8)
    assert report.verdict == "holds"
    assert report.checked == 7
    table = report.observed["coefficients"]
    for n in range(2, 9):
        assert table[str(n)] == KNOWN_COEFFS[str(n)]
    assert report.config == {"n_max": 8, "budget": report.config["budget"]}


def test_coefficients_validation():
    with pytest.raises(ValueError):
        check_coefficients(1)
    with pytest.raises(BudgetExceededError):
        check_coefficients(8, budget=3)
    # 7 expansions fit in 100, but n = 7 sums (6 + 2) * p(7) = 120 shape terms
    with pytest.raises(BudgetExceededError, match="shape terms"):
        check_coefficients(8, budget=100)


def test_coefficients_counterexamples_past_n_10():
    report = check_coefficients(14)
    assert report.verdict == "counterexample"
    assert [cx["detail"].split(",")[0] for cx in report.counterexamples] == [
        "n=10", "n=12", "n=13", "n=14"
    ]
    for cx in report.counterexamples:
        assert "(d)" in cx["detail"]
        assert "(a)" not in cx["detail"] and "(b)" not in cx["detail"]
        assert "(c)" not in cx["detail"]
    table = report.observed["coefficients"]
    for n in (12, 13, 14):
        a = table[str(n)]
        assert a.index(max(a)) == -(-n // 2) + 1


def test_coefficient_failure_messages():
    assert _coefficient_failures(5, (0, 1, 8, 13, 1)) == []
    bad = _coefficient_failures(5, (0, 1, 1, 5, 1))
    assert len(bad) == 1 and bad[0].startswith("(c)")
    bad = _coefficient_failures(4, (1, 1, 1, 1))
    assert any(msg.startswith("(a)") for msg in bad)
    bad = _coefficient_failures(4, (0, 1, 0, 1))
    kinds = {msg[:3] for msg in bad}
    assert kinds == {"(b)", "(c)", "(d)"}


def test_rc_shard_independence(capsys):
    blobs = _reports_across_shards(
        capsys,
        ["rc", "--u", "1", "--m", "2", "--w-alphabet", "3", "--w-length", "3"],
        (1, 3),
    )
    cfg = SweepConfig(w_alphabet=3, w_length=3)
    assert blobs == {check_rc((1,), 2, cfg).to_json() + "\n"}


def test_rc_trivial_self_dual():
    cfg = SweepConfig(w_alphabet=2, w_length=3)
    report = check_rc((1,), 1, cfg)
    assert report.verdict == "holds"
    assert report.config["u"] == [1]
    assert report.config["m"] == 1
    assert report.checked == 2 * count_words_up_to(2, 3)


def test_rc_requires_m_at_least_max_u():
    cfg = SweepConfig(w_alphabet=2, w_length=2)
    with pytest.raises(ValueError):
        check_rc((3,), 2, cfg)


def test_rc_swapping_u_and_complement_mirrors_the_report():
    cfg = SweepConfig(w_alphabet=3, w_length=4)
    left = check_rc((1,), 2, cfg)
    right = check_rc((2,), 2, cfg)
    assert left.verdict == right.verdict == "holds"
    assert rc_m((1,), 2) == (2,)
    assert left.observed["c_u_tableaux"] == right.observed["c_rc_tableaux"]
    assert left.observed["c_rc_tableaux"] == right.observed["c_u_tableaux"]


def test_rc_self_complementary_u():
    cfg = SweepConfig(w_alphabet=3, w_length=4)
    report = check_rc((1, 2), 2, cfg)
    assert report.verdict == "holds"
    assert report.observed["c_u_tableaux"] == report.observed["c_rc_tableaux"]


def test_rc_pairs_ranges():
    cfg = SweepConfig(u_alphabet=2, u_length=2, u_sum_bound=4)
    pairs = rc_pairs(cfg)
    assert pairs == [
        ((1,), 1),
        ((1,), 2),
        ((1,), 3),
        ((2,), 2),
        ((2,), 3),
        ((1, 1), 1),
        ((1, 1), 2),
        ((1, 2), 2),
        ((2, 1), 2),
        ((2, 2), 2),
    ]
    cfg = SweepConfig(u_alphabet=2, u_length=1)
    assert rc_pairs(cfg) == [((1,), 1), ((2,), 2)]


def test_rc_sweep_merges_pairs():
    cfg = SweepConfig(u_alphabet=2, u_length=2, u_sum_bound=3, w_alphabet=2, w_length=3)
    report = check_rc_sweep(cfg)
    assert report.verdict == "holds"
    assert report.observed == {"pairs": 4}
    assert report.checked == 4 * 2 * count_words_up_to(2, 3)
    assert "u" not in report.config


def test_rc_sweep_fills_each_side_word_once_per_length(monkeypatch):
    import plactic._kernels as kernels

    real = kernels.commuting_tableaux
    calls = []

    def counted(u, n, m):
        calls.append((tuple(u), n, m))
        return real(u, n, m)

    monkeypatch.setattr(kernels, "commuting_tableaux", counted)
    cfg = SweepConfig(u_alphabet=2, u_length=2, u_sum_bound=4, w_alphabet=2, w_length=3)
    sides = {side for u, m in rc_pairs(cfg) for side in (u, rc_m(u, m))}
    report = check_rc_sweep(cfg)
    assert report.verdict == "holds"
    assert 2 * len(rc_pairs(cfg)) > len(sides)
    assert len(calls) == len(set(calls)) == len(sides) * (cfg.w_length + 1)


# The sweeps test each member tableau once and expand only the failing ones
# into words.  No sweep in range finds a counterexample, so these patch a
# step of the harness to make some tableaux fail and compare the report
# with the same sweep made word by word.


def test_max_ri_counterexamples_match_the_per_word_sweep(monkeypatch):
    import plactic.harness as harness

    # Bound three rows of P(w) for every u, so members fail on rows 2 and 3.
    monkeypatch.setattr(harness, "p_tableau", lambda u: Tableau(((1,), (2,), (3,))))
    cfg = SweepConfig(u_alphabet=2, u_length=2, w_alphabet=3, w_length=4, budget=GOLDEN_BUDGET)
    us = _u_range(cfg)

    def detail(i, rows):
        m = max(us[i])
        for r in range(min(3, len(rows))):
            if rows[r][-1] > m:
                return f"row {r + 1} of the P-tableau has max {rows[r][-1]} > max(u) = {m}"
        return None

    want = per_word_counterexamples(us, 3, 4, detail)
    report = check_max_ri(cfg)
    assert len(want) > 20
    assert report.verdict == "counterexample"
    assert report.counterexamples == tuple(want)
    assert report.checked == len(us) * count_words_up_to(3, 4)


def test_rc_counterexamples_match_the_per_word_sweep(monkeypatch):
    import plactic.harness as harness

    # tau_m as the identity: a member tableau fails when its own row word
    # is not in the other centralizer.
    monkeypatch.setattr(harness, "tau_m", lambda t, m: t)
    cfg = SweepConfig(w_alphabet=3, w_length=4, budget=GOLDEN_BUDGET)
    for u, m in (((1,), 2), ((1, 2), 3), ((2, 1, 2), 2)):
        sides = [u, rc_m(u, m)]

        def detail(i, rows):
            row_word = tuple(a for row in reversed(rows) for a in row)
            if in_centralizer(sides[1 - i], row_word):
                return None
            return (f"tau_{m} image with row word [{','.join(map(str, row_word))}] is not in "
                    f"C({','.join(map(str, sides[1 - i]))})")

        want = per_word_counterexamples(sides, 3, 4, detail)
        report = check_rc(u, m, cfg)
        assert want, (u, m)
        assert report.verdict == "counterexample"
        assert report.counterexamples == tuple(want), (u, m)


def test_rc_sweep_is_check_rc_over_the_pairs_in_order(monkeypatch):
    import plactic.harness as harness

    # tau_m as the identity, as above, so that several pairs fail.
    monkeypatch.setattr(harness, "tau_m", lambda t, m: t)
    cfg = SweepConfig(u_alphabet=2, u_length=2, u_sum_bound=4, w_alphabet=3, w_length=3,
                      budget=GOLDEN_BUDGET)
    reports = [check_rc(u, m, cfg) for u, m in rc_pairs(cfg)]
    want = tuple(c for r in reports for c in r.counterexamples)
    sweep = check_rc_sweep(cfg)
    assert sum(1 for r in reports if r.counterexamples) > 1
    assert sweep.checked == sum(r.checked for r in reports)
    assert sweep.verdict == _verdict(want, True) == "counterexample"
    assert sweep.counterexamples == want


def test_stability_witness_matches_the_per_word_sweep(monkeypatch):
    import plactic.harness as harness

    # Drop the tableaux of two or more rows from C(u^2) only: S_1 and S_3
    # then hold words that S_2 lacks.
    def keep(uk, rows):
        return len(uk) != 2 * len(u) or len(rows) < 2

    real = harness.centralizer_tableaux

    def fake(uk, n, m, budget=None):
        return [t for t in real(uk, n, m, budget=budget) if keep(uk, t.rows)]

    monkeypatch.setattr(harness, "centralizer_tableaux", fake)
    cfg = SweepConfig(w_alphabet=3, w_length=4, k_bound=3, budget=GOLDEN_BUDGET)
    for u in ((1,), (2, 1)):
        sizes, missing = per_word_stability(
            u, 3, 3, 4, lambda uk, w: commutes_oracle(uk, w) and keep(uk, p_oracle(w)))
        report = check_stability(u, cfg)
        assert missing and missing[0]["k"] == 1, u
        assert report.observed["set_sizes"] == sizes, u
        assert report.observed["non_containments"] == missing, u
        assert report.observed["K"] == 2
        assert report.observed["L"] == 3

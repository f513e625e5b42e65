import dataclasses

import pytest

from plactic import (
    BadParameterError,
    BudgetExceededError,
    SweepConfig,
    SweepReport,
    Tableau,
    bender_knuth,
    check_coefficients,
    check_max_ri,
    check_rc,
    check_rc_sweep,
    check_stability,
    count_centralizer_words,
    in_centralizer,
    rc_m,
    tau_m,
)
from plactic.centralizer import centralizer_tableaux, require_budget
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

from helpers import (
    commutes_oracle,
    p_oracle,
    per_word_counterexamples,
    per_word_rc,
    per_word_stability,
)

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
    assert SweepConfig().echo()["budget"] == 123
    assert SweepConfig(budget=9).echo()["budget"] == 9


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
        for max_len in range(0, 6):
            want = sum(alphabet**n for n in range(max_len + 1))
            assert count_words_up_to(alphabet, max_len) == want


def test_huge_sweep_is_refused_by_the_budget():
    """A pair count with more digits than Python prints is still a
    BudgetExceeded."""
    cfg = SweepConfig(u_alphabet=1, u_length=1, w_alphabet=2, w_length=20000)
    with pytest.raises(BudgetExceededError, match=r"pairs in the sweep: at least 2\^20000, over"):
        check_max_ri(cfg)


def test_one_rule_refuses_every_total_too_large_to_build():
    """Under 2^65536 a total is built and shows its exact bit length,
    whether it counts words or sweep pairs; only refuse_at_least refuses
    a total without building it."""
    import plactic.centralizer as centralizer

    assert (3**40000).bit_length() - 1 == 63398
    with pytest.raises(BudgetExceededError, match=r"words in \[3\]\^40000: at least 2\^63398, over"):
        count_centralizer_words((1,), 40000, 3)
    # one u against the (3^40001 - 1) / 2 words of [3]^<=40000
    assert count_words_up_to(3, 40000).bit_length() - 1 == 63399
    cfg = SweepConfig(u_alphabet=1, u_length=1, w_alphabet=3, w_length=40000)
    with pytest.raises(BudgetExceededError, match=r"pairs in the sweep: at least 2\^63399, over"):
        check_max_ri(cfg)
    assert not hasattr(centralizer, "refuse_huge_power")


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
    # an explicit budget that is not a positive int is refused, not compared
    for bad in (0, -3, True, 2.5, "10"):
        with pytest.raises(BadParameterError, match=f"budget must be a positive integer, got {bad!r}"):
            require_budget(0, bad, "pairs")
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
    cfg = SweepConfig(u_alphabet=2, u_length=1, u_sum_bound=3, w_alphabet=3, w_length=2)
    # sides (1,) (1,) | (1,) (2,) | (2,) (1,), every m < 3: the first
    # pair's first side reads one fill of (1,) per length and its second
    # side reads none; the second pair's first side fills its partner
    # (2,) and is interrupted after its n = 0 block
    assert rc_pairs(cfg) == [((1,), 1), ((1,), 2), ((2,), 2)]
    report = check_rc_sweep(cfg)
    assert report.verdict == "incomplete"
    assert report.checked == 2 * (1 + 3 + 9) + 1
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
    # 7 expansions fit in 100, but their shape terms for n = 2..6 sum to 162
    with pytest.raises(BudgetExceededError, match="shape terms"):
        check_coefficients(8, budget=100)
    # each expansion to n = 20 fits 20,000 ((n + 1) * p(n) is 13,167 at
    # n = 20), but the sweep sums 48,725 shape terms
    with pytest.raises(BudgetExceededError, match="shape terms .*, over the budget 20000"):
        check_coefficients(20, budget=20_000)
    with pytest.raises(BudgetExceededError, match=": 48725, over the budget 48724"):
        check_coefficients(20, budget=48_724)
    assert check_coefficients(20, budget=48_725).checked == 19


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
    """Each side of a pair with m < w_alphabet is filled once per length,
    and a side whose pairs all have m >= w_alphabet is never filled."""
    import plactic._kernels as kernels

    real = kernels.commuting_tableaux
    calls = []

    def counted(u, n, m):
        calls.append((tuple(u), n, m))
        return real(u, n, m)

    monkeypatch.setattr(kernels, "commuting_tableaux", counted)
    cfg = SweepConfig(u_alphabet=2, u_length=2, u_sum_bound=4, w_alphabet=3, w_length=3)
    sides = {side for u, m in rc_pairs(cfg) if m < 3 for side in (u, rc_m(u, m))}
    settled = {side for u, m in rc_pairs(cfg) if m >= 3 for side in (u, rc_m(u, m))}
    report = check_rc_sweep(cfg)
    assert report.verdict == "holds"
    assert 2 * sum(1 for u, m in rc_pairs(cfg) if m < 3) > len(sides)
    assert settled - sides == {(3,)}
    assert len(calls) == len(set(calls)) == len(sides) * (cfg.w_length + 1)
    assert {u for u, n, m in calls} == sides


# The sweeps test each member tableau once and expand only the failing ones
# into words.  No sweep in range finds a counterexample, so these patch a
# step of the harness to make some tableaux fail and compare the report
# with the same sweep made word by word.


def _max_ri_matches_the_per_word_sweep(monkeypatch, cfg):
    import plactic.harness as harness

    # Bound three rows of P(w) for every u, so members fail on rows 2 and 3.
    monkeypatch.setattr(harness, "p_tableau", lambda u: Tableau(((1,), (2,), (3,))))
    us = _u_range(cfg)

    def detail(i, rows):
        m = max(us[i])
        for r in range(min(3, len(rows))):
            if rows[r][-1] > m:
                return f"row {r + 1} of the P-tableau has max {rows[r][-1]} > max(u) = {m}"
        return None

    want = per_word_counterexamples(us, cfg.w_alphabet, cfg.w_length, detail)
    report = check_max_ri(cfg)
    assert len(want) > 20
    assert report.verdict == "counterexample"
    assert report.counterexamples == tuple(want)
    assert report.checked == len(us) * count_words_up_to(cfg.w_alphabet, cfg.w_length)


def test_max_ri_counterexamples_match_the_per_word_sweep(monkeypatch):
    cfg = SweepConfig(u_alphabet=2, u_length=2, w_alphabet=3, w_length=4, budget=GOLDEN_BUDGET)
    _max_ri_matches_the_per_word_sweep(monkeypatch, cfg)


def test_max_ri_shared_fills_match_the_per_word_sweep(monkeypatch):
    """u over [4] against w over [3]: words with one P(u) share a fill
    (121 and 211), and the u with max(u) >= 3 get none."""
    cfg = SweepConfig(u_alphabet=4, u_length=3, w_alphabet=3, w_length=3, budget=GOLDEN_BUDGET)
    us = _u_range(cfg)
    assert len({p_oracle(u) for u in us}) < len(us) and any(max(u) >= 3 for u in us)
    _max_ri_matches_the_per_word_sweep(monkeypatch, cfg)


def test_max_ri_powers_cannot_fail(monkeypatch):
    """The theorem behind the maxri skip of u = a^k: C(a^k) = C(a), and
    row 1 of P(w) is <= a for every w in C(a).  Word by word, for a <= 4,
    k <= 3 and w over [5] up to length 6, every member of C(a^k) has
    row 1 of P(w) <= a.  Then, with every member tableau forced to fail,
    the powers still pass, since they get no fill."""
    import plactic.harness as harness

    words = list(words_up_to(5, 6))
    members = 0
    for a in range(1, 5):
        for k in range(1, 4):
            for w in words:
                if in_centralizer((a,) * k, w):
                    members += 1
                    rows = p_oracle(w)
                    assert not rows or rows[0][-1] <= a, (a, k, w)
    assert members == 14_016

    def failing(u, n, m, budget=None):  # one member, whose row 1 is all m's
        return [Tableau(((m,) * n,) if n else ())]

    monkeypatch.setattr(harness, "centralizer_tableaux", failing)
    cfg = SweepConfig(u_alphabet=3, u_length=3, w_alphabet=3, w_length=2)
    report = check_max_ri(cfg)
    assert report.verdict == "counterexample"
    assert {tuple(c["u"]) for c in report.counterexamples} == {
        u for u in _u_range(cfg) if max(u) < 3 and len(set(u)) > 1}
    assert report.checked == len(_u_range(cfg)) * count_words_up_to(3, 2)


class _Fill(list):
    """A fill list that a weak reference can follow."""


def _fills_die_after_their_last_reader(monkeypatch, check, cfg, words, reads):
    """Run check(cfg) with every fill tracked by weak reference.  words are
    the swept words and reads[i] the indices whose fills block i reads.
    Fills are made by the first block that reads them, so when a block
    makes a fill, every fill still alive must have a reader at or after
    it.  Returns the most fills alive at once and the fills found dead
    before the sweep ended."""
    import weakref

    import plactic.harness as harness

    first, last = {}, {}
    for i, js in enumerate(reads):
        for j in js:
            key = p_oracle(words[j])
            first.setdefault(key, i)
            last[key] = i
    made = []
    seen = {"most": 0, "dead": 0}

    def tracked(u, n, m, budget=None):
        now = first[p_oracle(u)]
        alive = [key for key, ref in made if ref() is not None]
        assert all(last[key] >= now for key in alive), (u, n)
        seen["most"] = max(seen["most"], len(alive))
        seen["dead"] = len(made) - len(alive)
        fill = _Fill(centralizer_tableaux(u, n, m, budget=budget))
        made.append((p_oracle(u), weakref.ref(fill)))
        return fill

    monkeypatch.setattr(harness, "centralizer_tableaux", tracked)
    check(cfg)
    assert made and all(ref() is None for key, ref in made)
    return seen["most"], seen["dead"]


def test_no_fill_outlives_its_last_reader(monkeypatch):
    """The sweeps keep a fill only until the end of the last block that
    reads it: maxri, where 121 and 211 share fills and some u read none,
    and rc, where the first side of a pair reads both sides' fills."""
    cfg = SweepConfig(u_alphabet=4, u_length=3, w_alphabet=3, w_length=3, budget=GOLDEN_BUDGET)
    us = _u_range(cfg)
    reads = [(i,) if max(u) < 3 and len(set(u)) > 1 else () for i, u in enumerate(us)]
    most, dead = _fills_die_after_their_last_reader(monkeypatch, check_max_ri, cfg, us, reads)
    assert most >= 4 and dead >= 20

    cfg = SweepConfig(u_alphabet=3, u_length=3, u_sum_bound=5, w_alphabet=3, w_length=3,
                      budget=GOLDEN_BUDGET)
    pairs = rc_pairs(cfg)
    sides = [side for u, m in pairs for side in (u, rc_m(u, m))]
    # The later of two twin pairs, (u, m) and (rc_m(u, m), m), reads no fill.
    reads = []
    for p, (u, m) in enumerate(pairs):
        later_twin = (sides[2 * p + 1], m) in pairs[:p]
        reads += [(2 * p, 2 * p + 1) if m < 3 and not later_twin else (), ()]
    most, dead = _fills_die_after_their_last_reader(monkeypatch, check_rc_sweep, cfg, sides, reads)
    # 7 fills at most are alive at once; 20 or more were while a twin pair
    # still read both fills of its first pair.
    assert most >= 6 and dead >= 20


def _identity(t, m):
    return t


def test_rc_counterexamples_match_the_per_word_sweep(monkeypatch):
    import plactic.harness as harness

    # w over [4], so that every pair has m < w_alphabet and is tested
    monkeypatch.setattr(harness, "tau_m", lambda t, m: t)
    cfg = SweepConfig(w_alphabet=4, w_length=4, budget=GOLDEN_BUDGET)
    for u, m in (((1,), 2), ((1, 2), 3), ((2, 1, 2), 2)):
        want = per_word_rc([(u, m)], 4, 4, _identity)
        report = check_rc(u, m, cfg)
        assert want, (u, m)
        assert report.verdict == "counterexample"
        assert report.counterexamples == tuple(want), (u, m)


def test_rc_sweep_counterexamples_match_the_per_word_sweep(monkeypatch):
    """The sweep shares fills between sides with one P(side); its report
    is the per-word sweep's over every pair, made with no sharing at all.
    w over [5], so that every pair has m < w_alphabet and is tested."""
    import plactic.harness as harness

    monkeypatch.setattr(harness, "tau_m", lambda t, m: t)
    cfg = SweepConfig(u_alphabet=4, u_length=3, u_sum_bound=5, w_alphabet=5, w_length=3,
                      budget=GOLDEN_BUDGET)
    pairs = rc_pairs(cfg)
    assert max(m for u, m in pairs) < 5
    want = per_word_rc(pairs, 5, 3, _identity)
    sides = [side for u, m in pairs for side in (u, rc_m(u, m))]
    assert len({p_oracle(side) for side in sides}) < len(set(sides))
    report = check_rc_sweep(cfg)
    assert report.verdict == "counterexample"
    assert report.counterexamples == tuple(want)
    assert report.checked == 2 * len(pairs) * count_words_up_to(5, 3)


def _s1(t, m):
    return bender_knuth(t, 1)


@pytest.mark.parametrize("tau", [_identity, _s1])
def test_rc_set_comparison_matches_the_per_tableau_oracle(monkeypatch, tau):
    """Under a forced tau_m, an involution that keeps n-cell tableaux over
    [w_alphabet], the set comparison of the two sides' fills finds the
    counterexamples the per-tableau test finds.  The range has sides with
    one P(side) (121 and 211) and pairs with m >= 3, which report holds."""
    import plactic.harness as harness

    monkeypatch.setattr(harness, "tau_m", tau)
    cfg = SweepConfig(u_alphabet=3, u_length=3, u_sum_bound=5, w_alphabet=3, w_length=4,
                      budget=GOLDEN_BUDGET)
    pairs = rc_pairs(cfg)
    sides = [side for u, m in pairs if m < 3 for side in (u, rc_m(u, m))]
    assert len({p_oracle(side) for side in sides}) < len(set(sides))
    assert sum(1 for u, m in pairs if m >= 3) == 15
    n_w = count_words_up_to(3, 4)
    for u, m in pairs:
        report = check_rc(u, m, cfg)
        assert report.counterexamples == tuple(per_word_rc([(u, m)], 3, 4, tau)), (u, m)
        assert report.checked == 2 * n_w
        assert report.verdict == "holds" or m < 3, (u, m)
    want = per_word_rc(pairs, 3, 4, tau)
    report = check_rc_sweep(cfg)
    assert len(want) > 100
    assert report.verdict == "counterexample"
    assert report.counterexamples == tuple(want)
    assert report.checked == 2 * len(pairs) * n_w


def test_rc_pairs_with_m_at_least_w_alphabet_cannot_fail(monkeypatch):
    """The theorem behind the rc sweep's skip: when m >= w_alphabet, the
    per-word check with the real tau_m finds no counterexample (u over
    [4] with u-sum 7, w over [1], [2] and [3] up to length 4), and with a
    forced tau_m those pairs still hold, since no image is tested."""
    import plactic.harness as harness

    pairs = rc_pairs(SweepConfig(u_alphabet=4, u_length=3, u_sum_bound=7))
    settled = [(u, m, a) for u, m in pairs for a in (1, 2, 3) if m >= a]
    assert len(settled) == 472
    for u, m, a in settled:
        sides = [u, rc_m(u, m)]

        def detail(i, rows):
            image = tau_m(Tableau(rows), m).row_word()
            return None if in_centralizer(sides[1 - i], image) else image

        assert per_word_counterexamples(sides, a, 4, detail) == [], (u, m, a)

    monkeypatch.setattr(harness, "tau_m", lambda t, m: t)
    for u, m, a in settled:
        report = check_rc(u, m, SweepConfig(w_alphabet=a, w_length=4, budget=GOLDEN_BUDGET))
        assert report.verdict == "holds", (u, m, a)


def _count_calls(monkeypatch):
    """Count the sweeps' kernel fills, tau_m images and in_centralizer
    tests (the harness imports no in_centralizer, so the patch adds one
    that nothing calls)."""
    import plactic.harness as harness

    calls = {"fills": 0, "tau_m": 0, "in_centralizer": 0}
    fill, tau = harness.centralizer_tableaux, harness.tau_m

    def counted_fill(*args, **kwargs):
        calls["fills"] += 1
        return fill(*args, **kwargs)

    def counted_tau(*args, **kwargs):
        calls["tau_m"] += 1
        return tau(*args, **kwargs)

    def counted_member(*args, **kwargs):
        calls["in_centralizer"] += 1
        return in_centralizer(*args, **kwargs)

    monkeypatch.setattr(harness, "centralizer_tableaux", counted_fill)
    monkeypatch.setattr(harness, "tau_m", counted_tau)
    monkeypatch.setattr(harness, "in_centralizer", counted_member, raising=False)
    return calls


def test_benchmark_sweeps_ask_each_membership_question_once(monkeypatch):
    """The perfbench sweeps make one fill per distinct (P(u), length), none
    for a maxri u with max(u) >= w_alphabet or u = a^k, none for an rc
    pair with m >= w_alphabet, and one tau_m image per member tableau of
    the first side of a pair with m < w_alphabet, except for the later of
    two twin pairs (u, m) and (rc_m(u, m), m), which takes none."""
    w7 = dict(w_alphabet=3, w_length=7, budget=GOLDEN_BUDGET)
    calls = _count_calls(monkeypatch)

    cfg = SweepConfig(u_alphabet=3, u_length=3, **w7)
    assert check_max_ri(cfg).verdict == "holds"
    classes = {p_oracle(u) for u in _u_range(cfg) if max(u) < 3 and len(set(u)) > 1}
    # was 312 = 39 * 8, then 96 = 12 * 8 with the u with max(u) >= 3 skipped
    assert calls == {"fills": 48, "tau_m": 0, "in_centralizer": 0} and 48 == len(classes) * 8

    calls.update(fills=0)
    assert check_stability((2, 1), SweepConfig(k_bound=4, **w7)).verdict == "holds"
    assert calls == {"fills": 32, "tau_m": 0, "in_centralizer": 0}

    calls.update(fills=0)
    cfg = SweepConfig(u_alphabet=3, u_length=3, u_sum_bound=5, w_alphabet=3, w_length=6,
                      budget=GOLDEN_BUDGET)
    assert check_rc_sweep(cfg).verdict == "holds"
    pairs = rc_pairs(cfg)
    tested = [(u, rc_m(u, m)) for p, (u, m) in enumerate(pairs)
              if m < 3 and (rc_m(u, m), m) not in pairs[:p]]
    members = sum(len(centralizer_tableaux(u, n, 3)) for u, v in tested for n in range(7))
    # was 147 fills and 2,390 tau_m, then 133 and 1,215, then 133 and
    # 1,150 with as many in_centralizer tests, then 84 and 575 with none
    assert calls == {"fills": 84, "tau_m": 394, "in_centralizer": 0}
    assert 84 == len({p_oracle(side) for pair in tested for side in pair}) * 7 and members == 394


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

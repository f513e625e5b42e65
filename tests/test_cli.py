import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plactic
from plactic import SweepReport
from plactic.cli import COMMANDS, cli_dispatch, parse_args

from helpers import centralizer_oracle, full_parser


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ptab(capsys):
    code, out, _ = run(capsys, "ptab", "212")
    assert code == 0
    assert out == "[1,2]\n[2]\n"


def test_ptab_json(capsys):
    code, out, _ = run(capsys, "ptab", "212", "--json")
    assert code == 0
    assert json.loads(out) == {"rows": [[1, 2], [2]]}


def test_ptab_word_forms(capsys):
    code, out, _ = run(capsys, "ptab", "10,2")
    assert code == 0
    assert out == "[2]\n[10]\n"
    code, _, err = run(capsys, "ptab", "102")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "ptab", "1,0,2")
    assert code == 2
    assert err.startswith("error:")


def test_commutes(capsys):
    code, out, _ = run(capsys, "commutes", "2,1,2", "1")
    assert code == 0
    assert out == "false\n"
    code, out, _ = run(capsys, "commutes", "2", "2,1,2")
    assert code == 0
    assert out == "true\n"


def test_commutes_one_letter_above_nine(capsys):
    """A trailing comma writes a one-letter word above 9, and the listing
    writes it back that way."""
    code, out, _ = run(capsys, "commutes", "10,", "1")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "commutes", "10,", "10,10")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "centralizer", "10,", "--len", "1", "--max", "12")
    assert (code, out) == (0, "10,\n")


def test_commutes_json(capsys):
    code, out, _ = run(capsys, "commutes", "2,1,2", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"commutes": False}


def test_centralizer_listing(capsys):
    code, out, _ = run(capsys, "centralizer", "1", "--len", "2", "--max", "2")
    assert code == 0
    assert out == "1,1\n2,1\n"
    code, out, _ = run(capsys, "centralizer", "1", "--len", "2", "--max", "2", "--json")
    assert json.loads(out) == {"words": [[1, 1], [2, 1]]}


def test_listing_and_count_bytes_do_not_depend_on_the_backend(capsys, reload_kernels):
    """centralizer and count print the same bytes under PLACTIC_PURE=1 and
    under the C module, and the listing is the definition's word list."""
    us = {(1,): "1", (2, 1): "21", (1, 2): "12", (2**40, 1): f"{2**40},1"}
    cases = [(u, n, m) for u in us for n in range(0, 7) for m in range(0, 4)]

    def outputs():
        out = []
        for u, n, m in cases:
            for command in ("centralizer", "count"):
                code, text, _ = run(capsys, command, us[u], "--len", str(n), "--max", str(m), "--json")
                assert code == 0, (command, u, n, m)
                out.append(text)
        return out

    assert reload_kernels("1").BACKEND == "pure"
    pure = outputs()
    assert reload_kernels(None).BACKEND == "c"
    assert outputs() == pure
    for (u, n, m), listing in zip(cases, pure[::2]):
        words = centralizer_oracle(u, n, m)
        assert listing == json.dumps({"words": [list(w) for w in words]}, separators=(",", ":")) + "\n"


# (u as typed, n, m): n = 0, m = 0 (no words), n = 1, u = "" (every word
# commutes) and letters of two digits, which the text form writes "12,"
# when the word has one letter.
LISTING_CASES = (
    [(u, n, m) for u in ("1", "21", "12", "212", "") for n in range(0, 5) for m in range(0, 4)]
    + [("12,", 2, 12), ("12,", 1, 12), ("10,", 1, 12), ("", 2, 11), ("3,10", 3, 10)]
)


def test_listing_bytes_equal_the_word_list_on_both_backends(capsys, reload_kernels):
    """The streamed listing prints, in both modes and on both backends,
    exactly the bytes of the list centralizer_words returns: its _dump
    with --json, and one format_word line per word without."""
    from plactic.cli import _dump

    for pure_env in ("1", None):
        kernels = reload_kernels(pure_env)
        for u, n, m in LISTING_CASES:
            words = plactic.centralizer_words(plactic.parse_word(u), n, m)
            argv = ("centralizer", u, "--len", str(n), "--max", str(m))
            assert run(capsys, *argv, "--json") == (0, _dump({"words": words}) + "\n", ""), (kernels.BACKEND, u, n, m)
            text = "".join(plactic.format_word(w) + "\n" for w in words)
            assert run(capsys, *argv) == (0, text, ""), (kernels.BACKEND, u, n, m)
    assert run(capsys, "centralizer", "1", "--len", "0", "--max", "3", "--json")[1] == '{"words":[[]]}\n'
    assert run(capsys, "centralizer", "1", "--len", "3", "--max", "0", "--json")[1] == '{"words":[]}\n'
    assert run(capsys, "centralizer", "12,", "--len", "1", "--max", "12")[1] == "12,\n"


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_refused_listing_prints_nothing(capsys, monkeypatch, mode):
    """A listing over the word budget exits 2 before any byte of it is
    written, by the default budget and by PLACTIC_BUDGET."""
    code, out, err = run(capsys, "centralizer", "1", "--len", "30", "--max", "4", *mode)
    assert (code, out) == (2, "") and err.startswith("error: words in [4]^30")
    monkeypatch.setenv("PLACTIC_BUDGET", "8")
    code, out, err = run(capsys, "centralizer", "", "--len", "2", "--max", "3", *mode)
    assert (code, out) == (2, "") and err.startswith("error: words in [3]^2: 9, over the budget 8")


class _Sink:
    """A stdout that discards what is written, keeping its length and the
    number of "[" that open the listed words."""

    def __init__(self):
        self.size = 0
        self.opened = 0

    def write(self, text):
        self.size += len(text)
        self.opened += text.count("[")
        return len(text)

    def flush(self):
        pass


def _traced_listing(monkeypatch, *argv):
    """(exit code, _Sink, traced peak in bytes) of one listing written to
    a _Sink."""
    import tracemalloc

    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli_dispatch(["centralizer", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    return code, sink, peak


def test_large_listing_streams_in_bounded_memory(capsys, monkeypatch):
    """centralizer "" --len 10 --max 4 --json writes all 4^10 = 1,048,576
    words (23 MB of text) while the traced peak stays under 32 MiB: the
    word list is never held, only the levels, the edges and one level of
    suffix tables (about 5 MiB).  Holding the list of tuples alone takes
    over 100 MiB.  The bytes of a smaller listing are checked in full."""
    code, sink, peak = _traced_listing(monkeypatch, "", "--len", "10", "--max", "4", "--json")
    assert code == 0
    assert sink.opened == 1 + 4**10
    assert sink.size == len('{"words":[]}\n') + 4**10 * len("[1,1,1,1,1,1,1,1,1,1]") + (4**10 - 1)
    assert peak < 32 * 2**20, peak / 2**20
    words = [list(w) for w in itertools.product(range(1, 4), repeat=4)]
    want = json.dumps({"words": words}, separators=(",", ":")) + "\n"
    assert run(capsys, "centralizer", "", "--len", "4", "--max", "3", "--json") == (0, want, "")


def test_large_text_listing_streams_in_bounded_memory(capsys, monkeypatch):
    """The text listing of centralizer "" --len 10 --max 4 writes its
    4^10 lines of 20 bytes from the same walk, under the same bound."""
    code, sink, peak = _traced_listing(monkeypatch, "", "--len", "10", "--max", "4")
    assert code == 0
    assert (sink.opened, sink.size) == (0, 4**10 * len("1,1,1,1,1,1,1,1,1,1\n"))
    assert peak < 32 * 2**20, peak / 2**20
    want = "".join(",".join(map(str, w)) + "\n" for w in itertools.product(range(1, 4), repeat=4))
    assert run(capsys, "centralizer", "", "--len", "4", "--max", "3") == (0, want, "")


PERFBENCH_EXPECTED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _check_perfbench_checksums(capsys, reload_kernels, workloads, n_jobs):
    """Run every job of the given perfbench workloads as its argv, on the
    pure backend and on the C module, and compare its exit code and the
    sha256 of its stdout with perfbench/expected.json."""
    expected = json.loads(PERFBENCH_EXPECTED.read_text())
    jobs = [(key, want) for workload in workloads for key, want in expected[workload].items()]
    assert len(jobs) == n_jobs
    for backend, pure_env in (("pure", "1"), ("c", None)):
        assert reload_kernels(pure_env).BACKEND == backend
        for key, want in jobs:
            code, out, _ = run(capsys, *key.split())
            got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
            assert got == want, (backend, key)


def test_perfbench_sweep_and_scan_checksums_on_both_backends(capsys, reload_kernels):
    """Every sweep and scan job of the benchmark prints the bytes
    perfbench/expected.json records, on both backends."""
    _check_perfbench_checksums(capsys, reload_kernels, ("sweep", "scan"), 9)


def test_perfbench_expand_and_long_checksums_on_both_backends(capsys, reload_kernels):
    """The 56 expand jobs and the one fixed long job of the benchmark print
    the bytes perfbench/expected.json records, on both backends."""
    _check_perfbench_checksums(capsys, reload_kernels, ("expand", "long"), 57)


def _perfbench_argvs(names=None):
    """The argv of every CLI job of the named perfbench workloads (all four
    by default; seed 1)."""
    path = PERFBENCH_EXPECTED.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [job.args for name in names or workloads.WORKLOADS for job in workloads.jobs_for(name, 1)
            if job.kind == "cli"]


def test_stability_sweeps_compute_each_f_lambda_once(capsys, monkeypatch):
    """check_stability tallies the shapes of every S_k and computes each
    f^shape once: the stability sweeps of the benchmark make 31 f_lambda
    calls each, one per shape (217 in all when each k had its own), and
    every sweep job still prints the bytes perfbench/expected.json records."""
    import plactic.tableau

    real, shapes = plactic.tableau.f_lambda, []

    def counted(shape):
        shapes.append(tuple(shape))
        return real(shape)

    for name, module in list(sys.modules.items()):
        if name.startswith("plactic") and getattr(module, "f_lambda", None) is real:
            monkeypatch.setattr(module, "f_lambda", counted)
    expected = json.loads(PERFBENCH_EXPECTED.read_text())["sweep"]
    calls = []
    for argv in _perfbench_argvs(["sweep"]):
        before = len(shapes)
        code, out, _ = run(capsys, *argv)
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == expected[" ".join(argv)]
        calls.append(len(shapes) - before)
    assert [argv[1] for argv in _perfbench_argvs(["sweep"])] == ["maxri", "stability", "stability", "rc"]
    assert calls == [0, 31, 31, 0]
    assert len(set(shapes)) == 31


def test_count(capsys):
    code, out, _ = run(capsys, "count", "1", "--len", "4", "--max", "2")
    assert code == 0
    assert out == "6\n"
    code, out, _ = run(capsys, "count", "1", "--len", "4", "--max", "2", "--json")
    assert json.loads(out) == {"count": 6}


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "1", "--len", "4")
    assert code == 0
    assert out == "C(m,1) + 4*C(m,2) + C(m,3)\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "1", "--len", "8", "--json")
    assert code == 0
    assert json.loads(out) == {
        "coefficients": [0, 1, 68, 549, 1480, 1405, 428, 1],
        "display": "C(m,1) + 68*C(m,2) + 549*C(m,3) + 1480*C(m,4) "
                   "+ 1405*C(m,5) + 428*C(m,6) + C(m,7)",
    }


def test_expand_unsupported_word(capsys):
    code, _, err = run(capsys, "expand", "2,1,2", "--len", "3")
    assert code == 2
    assert "error:" in err


def test_expand_over_budget_exits_2(capsys):
    code, out, err = run(capsys, "expand", "1", "--len", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "shape terms" in err


def test_count_over_budget_by_a_huge_total_exits_2(capsys):
    code, out, err = run(capsys, "count", "1", "--len", "20000", "--max", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: words in [2]^20000: at least 2^20000, over the budget")


# Each is over the default budget by its length alone.  The m = 1 cases
# come first: a fill of their n cells fails at once, so a regression there
# shows before a slow case runs.
HUGE_LENGTHS = (
    ("count", "1", "--len", "99999999999999999999", "--max", "1"),
    ("count", "2", "--len", "3000000000", "--max", "1"),
    ("count", "1", "--len", "10000000", "--max", "3"),
    ("count", "1", "--len", "100000000", "--max", "3"),
    ("conjecture", "maxri", "--w-alphabet", "3", "--w-length", "10000000", "--u-length", "1"),
)


def test_huge_lengths_are_refused_at_once(capsys, monkeypatch):
    """A length over the budget is refused with one error line and exit
    code 2, within seconds, without building m^n (m >= 2) and without
    filling n cells (m = 1); a long word at m = 1 within it is counted."""
    monkeypatch.delenv("PLACTIC_BUDGET", raising=False)
    for argv in HUGE_LENGTHS:
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 5, argv
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert run(capsys, *HUGE_LENGTHS[1])[2] == (
        "error: letters in [1]^3000000000: 3000000000, over the budget 100000000\n")
    assert run(capsys, *HUGE_LENGTHS[3])[2] == (
        "error: words in [3]^100000000: at least 2^100000000, over the budget 100000000\n")
    assert run(capsys, "count", "1", "--len", "100000", "--max", "1") == (0, "1\n", "")
    # a sweep with no u has no pairs, whatever its w range
    t0 = time.monotonic()
    code, out, _ = run(capsys, "conjecture", "maxri", "--u-sum", "1", "--w-alphabet", "3",
                       "--w-length", "10000000", "--json")
    assert time.monotonic() - t0 < 5
    assert code == 0 and json.loads(out)["checked"] == 0


def test_negative_length_exits_2(capsys):
    code, out, err = run(capsys, "count", "1", "--len", "-1", "--max", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unreadable_letter_exits_2(capsys):
    code, out, err = run(capsys, "count", ",", "--len", "2", "--max", "2")
    assert (code, out) == (2, "")
    assert err == "error: letter 1 of ',' is '', not a positive integer\n"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "plactic: error: argument command: invalid choice: 'frobnicate'" in err
    assert run(capsys, "count", "1", "--len", "4")[0] == 2
    # options are read by their exact names; argparse also took a prefix
    assert run(capsys, "expand", "1", "--len=4")[:2] == (0, "C(m,1) + 4*C(m,2) + C(m,3)\n")
    code, out, err = run(capsys, "expand", "1", "--le", "4")
    assert (code, out) == (2, "")
    assert err.endswith("plactic expand: error: the following arguments are required: --len\n")


def test_conjecture_stability_requires_u(capsys):
    code, _, err = run(capsys, "conjecture", "stability")
    assert code == 2
    assert "requires --u" in err


def test_conjecture_rc_m_requires_u(capsys):
    """--m is a threshold for one --u; the rc sweep over many u has none."""
    code, out, err = run(capsys, "conjecture", "rc", "--m", "2")
    assert (code, out) == (2, "")
    assert err == "conjecture rc --m requires --u\n"


def test_conjecture_maxri_small(capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "maxri",
        "--u-alphabet", "2", "--u-length", "2",
        "--w-alphabet", "2", "--w-length", "3",
    )
    assert code == 0
    assert "verdict: holds" in out
    assert "checked: 90" in out


def test_conjecture_maxri_json(capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "maxri", "--json",
        "--u-alphabet", "2", "--u-length", "2",
        "--w-alphabet", "2", "--w-length", "3",
        "--shards", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["checked"] == 90
    assert payload["elapsed_ms"] == 0
    assert "shards" not in payload["config"]
    assert payload["config"]["w_alphabet"] == 2


def test_conjecture_stability_small(capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "stability", "--u", "2",
        "--w-alphabet", "3", "--w-length", "3", "--k-bound", "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["observed"]["K"] == 1
    assert payload["observed"]["L"] == 1


def test_conjecture_coeffs(capsys):
    code, out, _ = run(capsys, "conjecture", "coeffs", "--n-max", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["observed"]["coefficients"]["5"] == [0, 1, 8, 13, 1]


COEFFS = ["conjecture", "coeffs", "--n-max", "3", "--json"]
MAXRI = ["conjecture", "maxri", "--json", "--u-alphabet", "2", "--u-length", "2",
         "--w-alphabet", "2", "--w-length", "3"]


@pytest.mark.parametrize("argv, flag", [
    (COEFFS, ["--w-length", "0"]),
    (COEFFS, ["--shards", "0"]),
    (MAXRI, ["--shards", "0"]),
])
def test_conjecture_ignores_flags_it_never_reads(capsys, argv, flag):
    """coeffs reads only --n-max and --budget, and no sweep reads --shards:
    such a flag, even out of range, changes neither the exit code nor a
    byte of the output."""
    plain = run(capsys, *argv)
    assert plain[0] == 0
    assert run(capsys, *argv, *flag) == plain


def test_conjecture_rc_with_u(capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "rc", "--u", "1", "--m", "2",
        "--w-alphabet", "2", "--w-length", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["config"]["u"] == [1]
    assert payload["config"]["m"] == 2


def test_conjecture_rc_sweep_without_u(capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "rc",
        "--u-alphabet", "2", "--u-length", "1",
        "--w-alphabet", "2", "--w-length", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["observed"]["pairs"] == 2


def test_budget_exhaustion_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PLACTIC_BUDGET", "10")
    code, _, err = run(capsys, "count", "1", "--len", "10", "--max", "3")
    assert code == 2
    assert "error:" in err
    code, _, err = run(
        capsys, "conjecture", "maxri", "--u-alphabet", "2", "--u-length", "2"
    )
    assert code == 2
    assert "error:" in err


def test_explicit_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("PLACTIC_BUDGET", "1")
    code, _, _ = run(
        capsys,
        "conjecture", "maxri", "--budget", "1000000",
        "--u-alphabet", "2", "--u-length", "1",
        "--w-alphabet", "2", "--w-length", "2",
    )
    assert code == 0


def test_counterexample_exit_code(capsys, monkeypatch):
    import plactic.cli as cli

    fake = SweepReport(
        conjecture="maxri",
        config={},
        checked=1,
        verdict="counterexample",
        counterexamples=({"u": [2, 1], "w": [3], "detail": "made up"},),
        elapsed_ms=0,
    )
    monkeypatch.setattr(cli, "check_max_ri", lambda cfg: fake)
    code, out, _ = run(capsys, "conjecture", "maxri")
    assert code == 1
    assert "counterexample: u=[2,1] w=[3] made up" in out


def test_incomplete_exit_code(capsys, monkeypatch):
    import plactic.cli as cli

    fake = SweepReport(
        conjecture="maxri",
        config={},
        checked=1,
        verdict="incomplete",
        counterexamples=(),
        elapsed_ms=0,
    )
    monkeypatch.setattr(cli, "check_max_ri", lambda cfg: fake)
    assert run(capsys, "conjecture", "maxri")[0] == 2


PARSER_CASES = [
    [], ["-h"], ["--help"], ["-h", "expand"], ["bogus"], ["--json"],
    *([name, "-h"] for name in COMMANDS),
    ["ptab"], ["commutes", "1"], ["centralizer", "1", "--len", "2"], ["count", "1", "--max", "2"],
    ["expand", "21"], ["conjecture"],
    ["expand", "21", "--len", "3", "extra"], ["expand", "21", "--len", "x"], ["conjecture", "nope"],
    ["ptab", "212"], ["commutes", "21", "1", "--json"], ["centralizer", "1", "--len", "2", "--max", "2"],
    ["count", "1", "--len", "3", "--max", "2"], ["expand", "21", "--len", "4"],
    ["conjecture", "rc", "--u", "1", "--m", "2", "--w-alphabet", "2", "--shards", "2"],
    # where argparse stops: a bad command, int or choice before -h is an
    # error, an unknown option or an extra word before it is not
    ["x", "-h"], ["--json", "expand", "-h"], ["-x", "ptab", "1"], ["expand", "21", "--len", "x", "-h"],
    ["expand", "21", "--bogus", "-h"], ["expand", "21", "x", "--help"], ["conjecture", "nope", "-h"],
    ["ptab", "--help=x", "-h"], ["ptab", "1", "--json=1"],
    # values: negative numbers, a lone dash and words with a space are not
    # options; an option's value may not be an option
    ["expand", "-1", "--len", "-1"], ["expand", "-", "--len", "3"], ["expand", "-x y", "--len", "3"],
    ["conjecture", "rc", "--u", "--json"], ["expand", "21", "--len"], ["expand", "21", "--len=3", "--json"],
    ["commutes", "1", "--json", "2"], ["count", "1", "--len", "3", "--len", "4", "--max=2"],
    ["expand", "21", "--len", " 3 "],
]


def read(parse, argv):
    """(vars of the namespace parse returns for argv, or the exit code of
    a help or usage error, stdout, stderr)"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


ORACLE = full_parser(COMMANDS)


def check_reading(argv):
    """parse_args reads argv as the argparse parser of every command did:
    the same values, or help and exit 0 on both, or a usage error and
    exit 2 on both, the reader printing its help or its usage and error.
    Returns what the reader gave."""
    want = read(ORACLE.parse_args, argv)[0]
    got, out, err = read(parse_args, argv)
    assert got == want, argv
    if got == 0:
        assert out.startswith("usage: plactic") and not err, argv
    elif got == 2:
        assert not out and err.startswith("usage: plactic") and "error: " in err.splitlines()[1], argv
    return got


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_text_matches_the_full_parser(capsys, argv):
    """The reader reads argv as the argparse parser of every command did,
    and cli_dispatch exits with the code of its help or usage error."""
    got = check_reading(argv)
    if not isinstance(got, dict):
        assert run(capsys, *argv) == (got, *read(parse_args, argv)[1:])


FLAGS = sorted({"-h", "--help", "--json"} | {flag for _, arguments in COMMANDS.values()
                                             for flag, _ in arguments if flag[0] == "-"})
JUNK = ["x", "", "-", "-x", "--bogus", "--bogus=1", "1 2", "-x y", "-1", "-0.5", "=", "--json=",
        "--json=1", "--help=x", "--len=", "--len=x", "--max= 2", "--u=", "12,", "٣"]
INTS = st.integers(-3, 12).map(str)
VALUES = st.one_of(INTS, st.sampled_from(["212", "1,2", "", "x", "rc", "-", "-x y", "-1", "--json"]))
TOKENS = st.one_of(st.sampled_from(list(COMMANDS) + FLAGS + JUNK), VALUES)


@st.composite
def command_argvs(draw):
    """A command, then its arguments in any order, each positional and
    required option most often given, other options sometimes, as
    --name value or --name=value, with now and then a token of TOKENS
    before the command or among its arguments."""
    lead = draw(st.lists(st.sampled_from(["-h", "--json", "-x", "--bogus=1"]), max_size=2))[1:]
    command = draw(st.sampled_from(list(COMMANDS)))
    pieces = [["--json"]] if draw(st.booleans()) else []
    for flag, spec in COMMANDS[command][1]:
        odds = draw(st.integers(0, 9))
        if "choices" in spec and odds:
            value = draw(st.sampled_from(spec["choices"]))
        else:
            value = draw(INTS if spec.get("type") is int else VALUES)
        if flag[0] != "-" and odds:
            pieces.append([value])
        elif odds > (1 if spec.get("required") else 6):
            pieces.append([f"{flag}={value}"] if odds % 2 else [flag, value])
    pieces += [[token] for token in draw(st.lists(TOKENS, max_size=3))[1:]]
    return [*lead, command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _abbreviates(argv) -> bool:
    """Whether a token of argv is the proper prefix of an option of plactic
    or of a command argv names: argparse took it for the option, the
    reader takes no abbreviation."""
    heads = {token.partition("=")[0] for token in argv if token[:2] == "--"}
    flag_sets = [{"--help"}] + [{"--help", "--json", *(flag for flag, _ in COMMANDS[command][1])}
                                for command in set(argv) & COMMANDS.keys()]
    return any(head not in flags and any(flag.startswith(head) for flag in flags)
               for flags in flag_sets for head in heads)


def test_reader_matches_the_full_parser_on_perfbench_and_generated_argvs():
    """The argv of every perfbench CLI job, and argvs made of command names,
    flags, ints and junk, read the same as by the argparse parser."""
    argvs = _perfbench_argvs()
    assert len(argvs) == 81
    for argv in argvs:
        check_reading(argv)
        assert read(parse_args, argv)[0]["command"] == argv[0]

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.lists(TOKENS, max_size=6), command_argvs()))
    def generated(argv):
        assume(not _abbreviates(argv))
        check_reading(argv)

    generated()


def python(*args):
    """A fresh interpreter run with args, importing plactic from the
    source tree under test."""
    src = str(pathlib.Path(plactic.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"), timeout=60)


def test_importing_the_cli_loads_no_argparse():
    """The CLI reads argv itself, so a call does not pay to import
    argparse and gettext."""
    assert python("-c", "import plactic.cli, sys; print('argparse' in sys.modules)").stdout == "False\n"


def test_console_entry_point():
    """python -m plactic.cli runs main(), which exits with cli_dispatch's code."""

    def console(*argv):
        return python("-m", "plactic.cli", *argv)

    shown = console("--help")
    assert shown.returncode == 0
    assert "{ptab,commutes,centralizer,count,expand,conjecture}" in shown.stdout
    for name in COMMANDS:
        assert f"\n    {name} " in shown.stdout
    assert console("expand", "1", "--len", "4").stdout == "C(m,1) + 4*C(m,2) + C(m,3)\n"
    assert console("bogus").returncode == 2

"""Command-line interface.

Exit codes: 0 for success (or a conjecture sweep that holds), 1 when a
sweep finds a counterexample, 2 for usage errors, budget violations, and
interrupted (incomplete) sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys

from .centralizer import _centralizer_blocks, count_centralizer_words, in_centralizer
from .enumeration import expand_binomial
from .errors import PlacticError
from .harness import (
    SweepConfig,
    SweepReport,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    check_coefficients,
    check_max_ri,
    check_rc,
    check_rc_sweep,
    check_stability,
)
from .rsk import p_tableau
from .tableau import format_tableau, format_word, parse_word


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _int(**options) -> dict:
    return {"type": int, **options}


# command -> (help, [(argument, add_argument options)]); every command also takes --json
COMMANDS = {
    "ptab": ("print the insertion tableau of a word",
             [("word", {"help": "comma-separated letters, or bare digits like 212"})]),
    "commutes": ("does w commute with u in the plactic monoid", [("u", {}), ("w", {})]),
    "centralizer": ("list the centralizer words of a given length and alphabet",
                    [("u", {}), ("--len", _int(required=True, help="word length n")),
                     ("--max", _int(required=True, help="alphabet bound m"))]),
    "count": ("count centralizer words",
              [("u", {}), ("--len", _int(required=True)), ("--max", _int(required=True))]),
    "expand": ("binomial-basis expansion of m -> c_{n,m}(u)",
               [("u", {}), ("--len", _int(required=True))]),
    "conjecture": ("run a conjecture sweep", [
        ("which", {"choices": ("maxri", "stability", "coeffs", "rc")}),
        ("--u", {"help": "fixed u (required for stability; optional for rc)"}),
        ("--m", _int(help="threshold for rc (default: max of u)")),
        ("--u-alphabet", _int(default=4)),
        ("--u-length", _int(default=4)),
        ("--u-sum", _int(help="keep only u with max(u) + |u| <= this bound")),
        ("--w-alphabet", _int(default=4)),
        ("--w-length", _int(default=4)),
        ("--k-bound", _int(default=4)),
        # read by nothing; kept only while perfbench/workloads.py SWEEP_FLAGS passes it
        ("--shards", _int(default=1, help="accepted and ignored")),
        ("--budget", _int()),
        ("--n-max", _int(default=8, help="for coeffs")),
    ]),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv. When argv[0] names a command only its subparser
    is built, and the usage line still lists every command; otherwise
    (no command, -h, an unknown command) all of them are."""
    parser = argparse.ArgumentParser(
        prog="plactic",
        description="Insertion tableaux, centralizers of the plactic monoid, "
                    "exact counts, and conjecture sweeps.",
    )
    if argv and argv[0] in COMMANDS:
        names, extra = [argv[0]], {"metavar": "{" + ",".join(COMMANDS) + "}"}
    else:
        names, extra = list(COMMANDS), {}
    sub = parser.add_subparsers(dest="command", required=True, **extra)
    for name in names:
        help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


class _Digits(dict):
    """str(a) for each letter a, each computed once."""

    def __missing__(self, a):
        text = self[a] = str(a)
        return text


def _print_words(u, n: int, m: int, as_json: bool):
    """Print the centralizer words of [m]^n block by block, so the word
    list is never held: with --json the bytes of
    _dump({"words": centralizer_words(u, n, m)}) and a newline, else one
    format_word line per word.  Both modes write the blocks of one walk:
    a suffix is spelled ",c,d" then "]" or a newline and a prefix "[a,b"
    or "a,b", so a block is one join.  The budget is checked first."""
    digits = _Digits()
    sep, end, bracket = (",", "]", "[") if as_json else ("", "\n", "")
    blocks = _centralizer_blocks(u, n, m, letter=lambda a: "," + digits[a], end=end)
    out = sys.stdout
    out.write('{"words":[' if as_json else "")
    lead = ""
    for prefix, suffixes in blocks:
        head = bracket + ",".join(map(digits.__getitem__, prefix))
        if n == 1 and prefix[0] > 9 and not as_json:
            head += ","  # format_word's one-letter form: "12" is the word 1, 2
        out.write(lead + head + (sep + head).join(suffixes))
        lead = sep
    out.write("]}\n" if as_json else "")


def _print_report(report: SweepReport, as_json: bool):
    if as_json:
        print(report.to_json())
        return
    print(f"conjecture: {report.conjecture}")
    print(f"verdict: {report.verdict}")
    print(f"checked: {report.checked}")
    for key in sorted(report.observed):
        print(f"{key}: {report.observed[key]}")
    for cx in report.counterexamples:
        print(f"counterexample: u=[{format_word(tuple(cx['u']))}] "
              f"w=[{format_word(tuple(cx['w']))}] {cx['detail']}")
    print(f"elapsed_ms: {report.elapsed_ms}")


def _report_exit(report: SweepReport) -> int:
    if report.verdict == VERDICT_HOLDS:
        return 0
    if report.verdict == VERDICT_COUNTEREXAMPLE:
        return 1
    return 2


def _run_conjecture(args) -> int:
    if args.which == "coeffs":
        report = check_coefficients(args.n_max, budget=args.budget)
        _print_report(report, args.json)
        return _report_exit(report)
    cfg = SweepConfig(
        u_alphabet=args.u_alphabet, u_length=args.u_length, u_sum_bound=args.u_sum,
        w_alphabet=args.w_alphabet, w_length=args.w_length, k_bound=args.k_bound,
        budget=args.budget,
    )
    if args.which == "maxri":
        report = check_max_ri(cfg)
    elif args.u is not None:
        u = parse_word(args.u)
        if args.which == "stability":
            report = check_stability(u, cfg)
        else:
            report = check_rc(u, args.m if args.m is not None else (max(u) if u else 1), cfg)
    elif args.which == "stability":
        print("conjecture stability requires --u", file=sys.stderr)
        return 2
    elif args.m is not None:
        print("conjecture rc --m requires --u", file=sys.stderr)
        return 2
    else:
        report = check_rc_sweep(cfg)
    _print_report(report, args.json)
    return _report_exit(report)


def cli_dispatch(argv) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "ptab":
            t = p_tableau(parse_word(args.word))
            print(_dump({"rows": [list(r) for r in t.rows]}) if args.json else format_tableau(t))
            return 0
        if args.command == "commutes":
            ans = in_centralizer(parse_word(args.u), parse_word(args.w))
            print(_dump({"commutes": ans}) if args.json else ("true" if ans else "false"))
            return 0
        if args.command == "centralizer":
            _print_words(parse_word(args.u), args.len, args.max, args.json)
            return 0
        if args.command == "count":
            n = count_centralizer_words(parse_word(args.u), args.len, args.max)
            print(_dump({"count": n}) if args.json else n)
            return 0
        if args.command == "expand":
            poly = expand_binomial(parse_word(args.u), args.len)
            if args.json:
                print(_dump({"coefficients": list(poly.coefficients), "display": str(poly)}))
            else:
                print(poly)
            return 0
        return _run_conjecture(args)
    except (PlacticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

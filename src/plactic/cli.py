"""Command-line interface: ``plactic COMMAND [ARGUMENTS]``.

parse_args reads argv against the COMMANDS table.  A command takes its
positionals in table order and its options by their exact names, as
``--name value`` or ``--name=value``; the switch ``--json`` asks for
JSON, and ``-h`` or ``--help`` anywhere prints help, unless an argument
before it is already a usage error.  Prefix abbreviations such as
``--le`` and joined short options such as ``-hh`` are not read.  A word
that starts with a dash is an option unless it is a negative number or
holds a space.

Exit codes: 0 for success (or a conjecture sweep that holds), 1 when a
sweep finds a counterexample, 2 for usage errors, budget violations, and
interrupted (incomplete) sweeps.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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


# command -> (help, [(argument, spec)]): a positional's name or an option's flag,
# with the type, default, required, choices and help that parse_args reads;
# every command also takes -h and --json
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


_HELP = {"-h": None, "--help": None}  # flag -> None: a switch, which takes no value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, not an option


def _is_option(token: str, flags) -> bool:
    """Whether token is an option, as argparse reads it: one of flags,
    alone or as flag=value, or any other dash word that is neither a lone
    dash nor a negative number and holds no space."""
    return token.partition("=")[0] in flags or (
        token[:1] == "-" and len(token) > 1 and " " not in token and not _NEGATIVE.match(token))


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _metavar(flag: str, options: dict) -> str:
    if "choices" in options:
        return "{" + ",".join(options["choices"]) + "}"
    return flag if flag[0] != "-" else f"{flag} {_dest(flag).upper()}"


_CHOICES = _metavar("command", {"choices": COMMANDS})


def _usage(command) -> str:
    if command is None:
        return f"usage: plactic [-h] {_CHOICES} ..."
    arguments = COMMANDS[command][1]
    options = [_metavar(flag, spec) if spec.get("required") else f"[{_metavar(flag, spec)}]"
               for flag, spec in arguments if flag[0] == "-"]
    positionals = [_metavar(flag, spec) for flag, spec in arguments if flag[0] != "-"]
    return " ".join(["usage: plactic", command, "[-h]", "[--json]", *options, *positionals])


def _help(command):
    """Print the usage and the arguments of command (of plactic itself
    for None) and exit 0."""
    head, options = [], [("-h, --help", "show this help message and exit")]
    if command is None:
        head = ["", "Insertion tableaux, centralizers of the plactic monoid, exact counts, and",
                "conjecture sweeps."]
        positionals = [(_CHOICES, None)] + [("  " + name, text) for name, (text, _) in COMMANDS.items()]
    else:
        arguments = COMMANDS[command][1]
        positionals = [(_metavar(flag, spec), spec.get("help")) for flag, spec in arguments if flag[0] != "-"]
        options.append(("--json", "emit a JSON object instead of text"))
        options += [(_metavar(flag, spec), spec.get("help")) for flag, spec in arguments if flag[0] == "-"]
    lines = [_usage(command), *head]
    for title, rows in (("positional arguments:", positionals), ("options:", options)):
        lines += ["", title]
        for name, text in rows:
            if not text:
                lines.append(f"  {name}")
            else:
                lines.append(f"  {name:<20}  {text}" if len(name) <= 20 else f"  {name}\n{'':24}{text}")
    print("\n".join(lines))
    raise SystemExit(0)


def _fail(command, message: str):
    """Print the usage and a usage error and exit 2."""
    prog = "plactic" if command is None else f"plactic {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _switch(command, token: str):
    """Read -h, --help or --json, which take no value: help exits."""
    flag, eq, text = token.partition("=")
    if eq:
        _fail(command, f"argument {flag}: ignored explicit argument {text!r}")
    if flag != "--json":
        _help(command)


def _convert(command, name: str, spec: dict, text: str):
    """text read by the argument's type and checked against its choices."""
    kind = spec.get("type", str)
    try:
        value = kind(text)
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")
    if "choices" in spec and value not in spec["choices"]:
        choices = ", ".join(map(repr, spec["choices"]))
        _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def parse_args(argv) -> SimpleNamespace:
    """argv read against COMMANDS: the command, then its positionals in
    table order and its options by exact name, as ``--name value`` or
    ``--name=value``, each read by its type and checked against its
    choices; ``--json`` is a switch.  Returns one attribute per argument,
    with the default of each option not given, as argparse's Namespace
    had.  -h or --help prints help and exits 0; a usage error prints the
    usage and the error and exits 2, both by SystemExit and at the token
    where argparse stopped, so the exit code is argparse's."""
    tokens = iter(argv)
    extras = []
    for token in tokens:
        if not _is_option(token, _HELP):
            break
        if token.partition("=")[0] in _HELP:
            _switch(None, token)
        extras.append(token)
    else:
        _fail(None, "the following arguments are required: command")
    command = _convert(None, "command", {"choices": COMMANDS}, token)
    arguments = COMMANDS[command][1]
    flags = {**_HELP, "--json": None, **{flag: spec for flag, spec in arguments if flag[0] == "-"}}
    pending = [(flag, spec) for flag, spec in reversed(arguments) if flag[0] != "-"]
    values = {"command": command, "json": False}
    values.update((_dest(flag), spec.get("default")) for flag, spec in arguments)
    given = set()
    for token in tokens:
        if _is_option(token, flags):
            flag, eq, text = token.partition("=")
            if flag not in flags:
                extras.append(token)
                continue
            spec = flags[flag]
            if spec is None:
                _switch(command, token)
                values["json"] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or _is_option(text, flags):
                    _fail(command, f"argument {flag}: expected one argument")
        elif pending:
            (flag, spec), text = pending.pop(), token
        else:
            extras.append(token)
            continue
        values[_dest(flag)] = _convert(command, flag, spec, text)
        given.add(flag)
    missing = [flag for flag, spec in arguments
               if flag not in given and (flag[0] != "-" or spec.get("required"))]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


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
        args = parse_args(argv)
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

"""Spans around plactic's public functions, installed from outside.

Each target function is replaced, in every plactic module namespace that
holds it, by a wrapper that records a span (name, start, end, parent, job)
and folds it into per-layer totals: calls, total time, self time (total
minus direct child spans) and two layer-specific counters.  Totals cover
every call; the span list itself is capped so memory stays bounded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 100_000


def _scan_words(args, kwargs):
    # kernel signature: (u, n, m, start=0, stop=None)
    n, m = args[1], args[2]
    start = args[3] if len(args) > 3 else kwargs.get("start", 0)
    stop = args[4] if len(args) > 4 else kwargs.get("stop")
    total = m**n if n else 1
    stop = total if stop is None else min(stop, total)
    return max(0, stop - start)


def _members(result):
    return result if isinstance(result, int) else len(result)


# Counter hooks: (stats, parent layer, args, kwargs, result) -> None.
# stats is [calls, total_ns, self_ns, x, y].

def _count_harness(st, parent, args, kwargs, result):
    if parent != "harness":  # check_rc_sweep nests check_rc: count the outer report only
        st[3] += result.checked


def _count_membership(st, parent, args, kwargs, result):
    if parent == "harness":
        st[3] += 1
        st[4] += bool(result)


def _count_scan(st, parent, args, kwargs, result):
    st[3] += _scan_words(args, kwargs)
    st[4] += _members(result)


def _count_letters_in(st, parent, args, kwargs, result):
    st[3] += len(args[0])


def _count_letters_out(st, parent, args, kwargs, result):
    st[3] += len(result)


def _count_outermost(st, parent, args, kwargs, result):
    if parent != "kernels.pure_fallback":
        st[3] += 1


# (module, function, layer, counter)
TARGETS = (
    ("plactic.cli", "cli_dispatch", "cli", None),
    ("plactic.harness", "check_max_ri", "harness", _count_harness),
    ("plactic.harness", "check_stability", "harness", _count_harness),
    ("plactic.harness", "check_rc", "harness", _count_harness),
    ("plactic.harness", "check_rc_sweep", "harness", _count_harness),
    ("plactic.harness", "check_coefficients", "harness", _count_harness),
    ("plactic.centralizer", "in_centralizer", "centralizer.in_centralizer", _count_membership),
    ("plactic.centralizer", "centralizer_words", "centralizer.scan", _count_scan),
    ("plactic.centralizer", "count_centralizer_words", "centralizer.scan", _count_scan),
    ("plactic.tableau", "word", "tableau.word", None),
    ("plactic._kernels", "commutes", "kernels.commutes", None),
    ("plactic._kernels", "count_commuting", "kernels.count_commuting", _count_scan),
    ("plactic._kernels", "commuting_words", "kernels.commuting_words", _count_scan),
    ("plactic._kernels", "insertion_rows", "kernels.insertion_rows", _count_letters_in),
    ("plactic.rsk", "p_tableau", "rsk.p_tableau", None),
    ("plactic.rsk", "rsk_pair", "rsk.rsk_pair", _count_letters_in),
    ("plactic.rsk", "inverse_rsk", "rsk.inverse_rsk", _count_letters_out),
    ("plactic.involutions", "tau_m", "involutions.tau_m", None),
    ("plactic.jdt", "p_via_jdt", "jdt.p_via_jdt", None),
    ("plactic.enumeration", "expand_binomial", "enumeration.expand_binomial", None),
    ("plactic.enumeration", "count_by_shapes", "enumeration.count_by_shapes", None),
    ("plactic.enumeration", "ssyt_count", "enumeration.ssyt_count", None),
    ("plactic.enumeration", "linear_extensions", "enumeration.linear_extensions", None),
)

# With a compiled backend, _kernels retries OverflowError calls through these.
FALLBACK_TARGETS = tuple(
    ("plactic._kernels._pure", name, "kernels.pure_fallback", _count_outermost)
    for name in ("insertion_rows", "insert_rows", "commutes", "count_commuting", "commuting_words")
)

# The layers each workload is predicted to spend its time in.
DOMINANT = {
    "sweep": ("harness", "centralizer.in_centralizer", "tableau.word", "kernels.commutes",
              "rsk.p_tableau", "involutions.tau_m", "kernels.insertion_rows"),
    "scan": ("centralizer.scan", "kernels.count_commuting", "kernels.commuting_words"),
    "expand": ("enumeration.expand_binomial", "enumeration.count_by_shapes",
               "enumeration.ssyt_count", "enumeration.linear_extensions"),
    "long": ("cli", "tableau.word", "kernels.insertion_rows", "kernels.commutes",
             "centralizer.in_centralizer", "rsk.p_tableau", "rsk.rsk_pair", "rsk.inverse_rsk",
             "jdt.p_via_jdt", "centralizer.scan", "kernels.count_commuting"),
}


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.stack: list = []  # frames [span id, child ns, layer]
        self.spans: list = []
        self.dropped = 0
        self.next_id = 0
        self.job = None

    def wrap(self, layer, fn, count=None):
        st = self.stats.setdefault(layer, [0, 0, 0, 0, 0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id = span + 1
            parent = stack[-1] if stack else None
            frame = [span, 0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((layer, start, end, parent[0] if parent else -1, self.job))
                else:
                    self.dropped += 1
            if count is not None:
                count(st, parent[2] if parent else None, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Replace each target in every loaded plactic namespace that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "plactic" or name.startswith("plactic."))]
        for mod_name, fn_name, layer, count in targets:
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self.wrap(layer, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for layer, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": layer, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stats: dict, workload: str, solve_ns: int) -> dict:
    """Per-layer metrics of one traced pass, from the tracer's totals."""
    zero = [0, 0, 0, 0, 0]

    def s(layer):
        return stats.get(layer, zero)

    def calls(layer):
        return s(layer)[0]

    def per_call(layer, i, scale):
        return _ratio(s(layer)[i], calls(layer)) / scale

    def per_item(layer):  # µs per counted item (word or letter)
        return _ratio(s(layer)[1], s(layer)[3]) / 1e3

    return {
        "cli.self_ms_per_job": per_call("cli", 2, 1e6),
        "harness.self_s": s("harness")[2] / 1e9,
        "harness.pairs_checked": s("harness")[3],
        "harness.member_ratio": _ratio(s("centralizer.in_centralizer")[4],
                                       s("centralizer.in_centralizer")[3]),
        "centralizer.in_centralizer.calls": calls("centralizer.in_centralizer"),
        "centralizer.in_centralizer.self_us": per_call("centralizer.in_centralizer", 2, 1e3),
        "tableau.word.calls": calls("tableau.word"),
        "tableau.word.us_per_call": per_call("tableau.word", 1, 1e3),
        "kernels.commutes.calls": calls("kernels.commutes"),
        "kernels.commutes.us_per_call": per_call("kernels.commutes", 1, 1e3),
        "rsk.p_tableau.calls": calls("rsk.p_tableau"),
        "rsk.p_tableau.self_us": per_call("rsk.p_tableau", 2, 1e3),
        "involutions.tau_m.calls": calls("involutions.tau_m"),
        "involutions.tau_m.us_per_call": per_call("involutions.tau_m", 1, 1e3),
        "centralizer.scan.us_per_word": per_item("centralizer.scan"),
        "centralizer.scan.member_ratio": _ratio(s("centralizer.scan")[4], s("centralizer.scan")[3]),
        "kernels.count_commuting.us_per_word": per_item("kernels.count_commuting"),
        "kernels.commuting_words.us_per_word": per_item("kernels.commuting_words"),
        "enumeration.expand_binomial.self_ms": per_call("enumeration.expand_binomial", 2, 1e6),
        "enumeration.count_by_shapes.calls": calls("enumeration.count_by_shapes"),
        "enumeration.count_by_shapes.ms_per_call": per_call("enumeration.count_by_shapes", 1, 1e6),
        "enumeration.ssyt_count.calls": calls("enumeration.ssyt_count"),
        "enumeration.ssyt_count.us_per_call": per_call("enumeration.ssyt_count", 1, 1e3),
        "enumeration.linear_extensions.calls": calls("enumeration.linear_extensions"),
        "kernels.insertion_rows.calls": calls("kernels.insertion_rows"),
        "kernels.insertion_rows.us_per_letter": per_item("kernels.insertion_rows"),
        "rsk.rsk_pair.us_per_letter": per_item("rsk.rsk_pair"),
        "rsk.inverse_rsk.us_per_letter": per_item("rsk.inverse_rsk"),
        "jdt.p_via_jdt.us_per_call": per_call("jdt.p_via_jdt", 1, 1e3),
        "kernels.pure_fallback_calls": s("kernels.pure_fallback")[3],
        "trace.dominant_share": _ratio(sum(s(layer)[2] for layer in DOMINANT[workload]), solve_ns),
    }

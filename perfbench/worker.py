"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass <workload> <seed> <oracle 0|1> <trace 0|1> [spans.jsonl]
    python3 perfbench/worker.py kernels

The first thing the worker does is import plactic and plactic.cli from the
checkout's src/ and read the backend; that is the set-up time.  A pass then
runs the workload's jobs back to back, each timed alone with its output
captured, and prints one JSON line with timings, checksums and problems.
Only os, sys and time are imported before set-up is timed, so set-up pays
for the standard-library modules plactic needs, as a CLI call does.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import plactic
    import plactic.cli
    backend = plactic._kernels.BACKEND
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(plactic.__file__).startswith(SRC + os.sep):
        raise ImportError(f"plactic was imported from {plactic.__file__}, not from {SRC}")
    return setup_s, backend


def _cache_clearers():
    """cache_clear of every functools cache in plactic, so that each job
    starts as cold as a fresh CLI call."""
    return [value.cache_clear
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "plactic" or name.startswith("plactic."))
            for value in vars(mod).values()
            if callable(getattr(value, "cache_clear", None))]


def make_runner():
    """The job runner, built after set-up.  Library calls go through module
    attributes so that installed spans see them."""
    import contextlib
    import io

    import plactic.cli
    import plactic.jdt
    import plactic.rsk

    def run_job(job):
        """Run one job; returns (exit code, output)."""
        if job.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = plactic.cli.cli_dispatch(job.args)
            return code, out.getvalue()
        if job.kind == "rsk":
            p, q = plactic.rsk.rsk_pair(job.args)
            return 0, (p, q, plactic.rsk.inverse_rsk(p, q))
        if job.kind == "jdt":
            return 0, plactic.jdt.p_via_jdt(*job.args)
        raise ValueError(f"unknown job kind {job.kind!r}")

    return run_job


def render(job, output) -> str:
    """The job's output as text: CLI stdout as printed, library results as
    canonical JSON."""
    import json

    if job.kind == "cli":
        return output
    if job.kind == "rsk":
        p, q, w = output
        obj = {"p": [list(r) for r in p.rows], "q": [list(r) for r in q.rows], "w": list(w)}
    else:
        obj = {"rows": [list(r) for r in output.rows]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def run_pass(workload, seed, oracle, trace, spans_path):
    import hashlib
    import resource

    import plactic
    import tracing
    import workloads

    jobs = workloads.jobs_for(workload, seed)
    clearers = _cache_clearers()
    tracer = None
    runner = make_runner()
    if trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        if plactic._kernels.BACKEND != "pure":
            tracer.install(tracing.FALLBACK_TARGETS)
        runner = tracer.wrap("job", runner)

    results = []
    texts = []
    solve_ns = 0
    for index, job in enumerate(jobs):
        for clear in clearers:
            clear()
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter_ns()
        try:
            code, output = runner(job)
            error = None
        except Exception as exc:  # a failed job is a result, not the end of the pass
            code, output, error = None, None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        solve_ns += elapsed
        text = render(job, output) if error is None else ""
        texts.append(text)
        results.append({
            "id": job.id,
            "exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "seconds": elapsed / 1e9,
            "error": error,
        })
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"solve_s": solve_ns / 1e9, "items": sum(j.items for j in jobs),
           "peak_rss_mb": rss_mb, "jobs": results}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.stats, workload, solve_ns)
        out["spans_kept"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        if spans_path:
            tracer.write_spans(spans_path)
    if oracle:
        import checks

        for job, result, text in zip(jobs, results, texts):
            if result["error"] is None:
                result["problems"] = checks.check(workload, job, result["exit"], text)
    return out


BENCH_SEED = 20240817  # the inputs of benchmarks/bench_kernels.py


def run_kernels():
    """The two measurements of benchmarks/bench_kernels.py, best of three,
    on the active backend, with their outputs checked."""
    import random

    from plactic import _kernels, count_by_shapes, rsk_pair, word12

    def best_of_3(fn, *args):
        best, out = float("inf"), None
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn(*args)
            best = min(best, time.perf_counter() - t0)
        return best, out

    rng = random.Random(BENCH_SEED)
    words = [tuple(rng.randint(1, 6) for _ in range(40)) for _ in range(4000)]
    t_ins, rows = best_of_3(lambda ws: sum(len(_kernels.insertion_rows(w)) for w in ws), words)
    t_cnt, count = best_of_3(_kernels.count_commuting, (1, 2), 7, 4)
    problems = []
    if rows != sum(len(rsk_pair(w)[0].rows) for w in words):
        problems.append("insertion row counts differ from rsk_pair")
    if count != count_by_shapes(word12(), 7, 4):
        problems.append("count_commuting((1,2), 7, 4) differs from the shape sum")
    return {"insertion_4000x40_s": t_ins, "count_12_n7_m4_s": t_cnt, "problems": problems}


def main(argv):
    mode = argv[0]
    setup_s, backend = _setup()
    import json  # after set-up: plactic's own import of json is part of set-up

    out = {"setup_s": setup_s, "backend": backend}
    if mode == "pass":
        workload, seed, oracle, trace = argv[1], int(argv[2]), argv[3] == "1", argv[4] == "1"
        spans_path = argv[5] if len(argv) > 5 else None
        out.update(run_pass(workload, seed, oracle, trace, spans_path))
    elif mode == "kernels":
        out.update(run_kernels())
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

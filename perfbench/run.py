"""Benchmark driver: end-to-end and per-layer numbers for plactic.

    python3 perfbench/run.py --workload {sweep,scan,expand,long} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The driver is the only source of load:
it starts one fresh worker interpreter at a time (perfbench/worker.py), so
at most two processes run, and each worker runs one pass of the
workload's jobs back to back (a closed loop).  Passes repeat while at
least half of the next one is expected to fit in --seconds.  Every output is checked: committed checksums for
jobs with fixed inputs, oracles on the first pass, and agreement with the
first pass for seeded jobs.  A failed job counts in ``failed``; it is never
dropped.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result; a record with checksums and
run details goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 11


class BenchError(Exception):
    pass


def worker(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before worker {args[:2]}")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} ran past the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def worker_env(pure: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PLACTIC_BUDGET", "PLACTIC_PURE")}
    env["PYTHONHASHSEED"] = "0"
    if pure:
        env["PLACTIC_PURE"] = "1"
    return env


def run_passes(workload, seed, seconds, trace, env, deadline, spans_path):
    """Passes while at least half of the next one is expected to fit in
    ``seconds``; at least one, and with trace at least two, of which the
    odd ones are traced."""
    passes, walls = [], []
    start = time.monotonic()
    while (len(passes) < (2 if trace else 1)
           or time.monotonic() - start + statistics.median(walls) / 2 <= seconds):
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        args = ["pass", workload, str(seed), "1" if not passes else "0", "1" if traced else "0"]
        if traced:
            args.append(str(spans_path))
        result = worker(args, env, deadline)
        result["traced"] = traced
        passes.append(result)
        walls.append(time.monotonic() - t0)
    return passes


def grade(jobs, passes, expected):
    """(attempted, failures): every job of every pass, against the committed
    checksum when its inputs are fixed, else against the first pass; the
    first pass also carries the oracle verdicts."""
    first = passes[0]["jobs"]
    attempted, failures = 0, []
    for p in passes:
        for job, got, ref in zip(jobs, p["jobs"], first):
            attempted += 1
            want = expected.get(job.id) if job.fixed else {"exit": 0, "sha256": ref["sha256"]}
            if got["error"]:
                reasons = [got["error"]]
            elif want is None:
                reasons = ["no committed checksum"]
            elif got["exit"] != want["exit"]:
                reasons = [f"exit {got['exit']}, expected {want['exit']}"]
            else:
                reasons = list(got.get("problems", ()))
                if got["sha256"] != want["sha256"]:
                    reasons.insert(0, "output checksum differs from the "
                                      + ("committed one" if job.fixed else "first pass"))
            if reasons:
                failures.append({"id": job.id, "why": "; ".join(reasons)})
    return attempted, failures


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "pairs_checked", "pure_fallback_calls"):
        return "count"
    if last.endswith(("ratio", "share")):
        return "ratio"
    for unit in ("us", "ms", "s"):
        if unit in last.split("_"):
            return unit
    raise ValueError(f"no unit for {name}")


def layer_values(passes, kernels) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {key: statistics.median(p["layers"][key] for p in traced)
              for key in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(p["solve_s"] for p in traced)
                                  - statistics.median(p["solve_s"] for p in plain))
    values["kernels.bench_insertion_4000x40_s"] = kernels["insertion_4000x40_s"]
    values["kernels.bench_count_12_n7_m4_s"] = kernels["count_12_n7_m4_s"]
    return values


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "plactic" / "__init__.py").is_file():
        print(f"error: no plactic sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = workloads.jobs_for(args.workload, args.seed)
    expected = json.loads((HERE / "expected.json").read_text()).get(args.workload, {})
    env = worker_env(pure=False)

    try:
        # The first set-up also writes the bytecode caches; it is not counted.
        backend = worker(["setup"], env, deadline)["backend"]
        setups = [] if args.trace else [worker(["setup"], env, deadline)["setup_s"]
                                        for _ in range(SETUP_PROBES)]
        # With a compiled backend the traced run is repeated on the pure one.
        phases = [("", env)]
        if args.trace and backend != "pure":
            phases.append(("pure.", worker_env(pure=True)))
        passes_by_phase, kernels_by_phase = {}, {}
        for prefix, phase_env in phases:
            spans = OUT / f"spans-{prefix}{args.workload}-seed{args.seed}.jsonl"
            passes_by_phase[prefix] = run_passes(args.workload, args.seed, args.seconds / len(phases),
                                                 args.trace, phase_env, deadline, spans)
            if args.trace:
                kernels_by_phase[prefix] = worker(["kernels"], phase_env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures = 0, []
    for passes in passes_by_phase.values():
        a, f = grade(jobs, passes, expected)
        attempted += a
        failures += f
    for kernels in kernels_by_phase.values():
        attempted += 2  # the insertion and the count measurement
        failures += [{"id": "bench_kernels", "why": why} for why in kernels["problems"]]

    if args.trace:
        metrics = {}
        for prefix, passes in passes_by_phase.items():
            values = layer_values(passes, kernels_by_phase[prefix])
            metrics.update({prefix + k: v for k, v in values.items()})
        if backend == "pure":  # the default run already is the pure run
            metrics.update({"pure." + k: v for k, v in list(metrics.items())})
    else:
        plain = passes_by_phase[""]
        solve_s = statistics.median(p["solve_s"] for p in plain)
        metrics = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "solve_s": solve_s,
            "items_per_s": plain[0]["items"] / solve_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    units = {"setup_s": "s", "solve_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    result_metrics = {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "items_per_pass": sum(j.items for j in jobs),
        "item_unit": workloads.ITEM_UNITS[args.workload],
        "passes": {prefix or "default": [{k: p.get(k) for k in ("traced", "setup_s", "solve_s",
                                                                 "peak_rss_mb", "spans_dropped")}
                                         for p in passes]
                   for prefix, passes in passes_by_phase.items()},
        "checksums": {j["id"]: {"exit": j["exit"], "sha256": j["sha256"]}
                      for j in passes_by_phase[""][0]["jobs"]},
        "failures": failures,
        "metrics": result_metrics,
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    info = {k: record[k] for k in ("workload", "seed", "trace", "backend", "python", "nproc",
                                   "git_sha", "items_per_pass", "item_unit")}
    info["passes"] = sum(len(v) for v in record["passes"].values())
    info["record"] = str(record_path.relative_to(ROOT))
    print(json.dumps({"run": info}))
    for f in failures[:20]:
        print(f"FAILED {f['id'][:100]}: {f['why'][:300]}")
    rows = dict(result_metrics)
    rows["error_rate"] = {"value": len(failures) / attempted, "unit": "ratio"}
    for name, m in rows.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

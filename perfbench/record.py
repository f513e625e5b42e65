"""Write expected.json: the checksum and exit code of every job with fixed
inputs, from the current sources on the pure backend.

    python3 perfbench/record.py

It refuses to record a job that raised or failed an oracle.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    expected = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.jobs_for(name, 0)
        result = run.worker(["pass", name, "0", "1", "0"], run.worker_env(pure=True),
                            time.monotonic() + 600)
        expected[name] = {}
        for job, got in zip(jobs, result["jobs"]):
            if got["error"] or got.get("problems"):
                print(f"{name}: {job.id}: {got['error'] or got['problems']}", file=sys.stderr)
                return 1
            if job.fixed:
                expected[name][job.id] = {"exit": got["exit"], "sha256": got["sha256"]}
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

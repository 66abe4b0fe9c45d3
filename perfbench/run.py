"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload auth_serial --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds a traced pass and prints the per-layer metrics.  Human
readable lines (provenance, counts, every metric with its unit) come
first; the last line of stdout is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  A failed correctness check exits 1,
a missing program 2 and an invalid run (the generator set the pace) 3,
none of them with a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("auth_serial", "auth_open", "batch_crp")


def source_digest() -> str:
    """SHA-256 over the program's source files (the checkout may not be a
    git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src")
    for directory, _, names in sorted(os.walk(base)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, counts) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    tempfile.tempdir = work
    os.environ["TMPDIR"] = work
    config = workloads.Config(args.seed, args.seconds, bool(args.trace), work)
    try:
        if args.workload == "batch_crp":
            outcome = workloads.run_batch(config)
        else:
            spec = {"auth_serial": workloads.AUTH_SERIAL, "auth_open": workloads.AUTH_OPEN}
            outcome = workloads.run_auth(config, spec[args.workload])
    except workloads.BenchFailure as error:
        print(f"FAILED correctness check: {error}", file=sys.stderr)
        return 1
    except workloads.InvalidRun as error:
        print(f"INVALID run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# provenance " + json.dumps(provenance(args, outcome.counts)))
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    known = {entry["name"] for entry in contract["per_layer"]}
    unknown = set(outcome.layers) - known
    if unknown:
        raise SystemExit(f"internal error: undeclared layer metrics {sorted(unknown)}")
    for entry in contract["end_to_end"]:
        print(f"# {entry['name']:<30} {outcome.metrics[entry['name']]:>14.6g} {entry['unit']}")
    if args.trace:
        # A layer the workload does not run reads 0.
        values = {e["name"]: outcome.layers.get(e["name"], 0.0) for e in wanted}
        for entry in wanted:
            print(f"# {entry['name']:<30} {values[entry['name']]:>14.6g} {entry['unit']}")
    else:
        values = outcome.metrics
    metrics = {
        e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in wanted
    }
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

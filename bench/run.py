"""icebudget benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload demo-cold --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics of BENCHMARK.json with `--trace 0`, the per-layer ones with
`--trace 1`). Each metric is also printed by name with its unit on a line
before it. A fuller result with provenance goes to
`.bench_work/results/<workload>-seed<seed>-trace<trace>.json` (and the
traced run's spans next to it).

The workload runs on one thread of one worker process (`worker.py`) with
OMP/OpenBLAS/MKL threads pinned to 1; `setup_s` is the median of five
separate set-up processes. `--seconds` is the time of the whole invocation;
the worker's loop uses what the set-up probes leave of it, and runs over it
only to make its minimum of two runs. Exit code 1 when a correctness gate
fails, 2 when the checkout holds no icebudget sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_REFERENCE_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("demo-cold", "text-wide")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 20
# the whole invocation ends within this many seconds, or fails
DEADLINE_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def _metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _worker(args, workdir, result, seconds, timeout, *extra):
    """Run the worker; returns (wall seconds, result dict or None, stderr)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", os.getcwd(),
           "--workdir", workdir, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--result", result, *extra]
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(result):
        return wall, None, proc.stderr
    with open(result, encoding="utf-8") as fh:
        return wall, json.load(fh), proc.stderr


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: a seconds-long version for self-tests")
    parser.add_argument("--fault", choices=("digest",),
                        help="self-test only: corrupt one report.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/icebudget/cli.py", "configs/synthetic.yaml",
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found under {root}; run from the root "
                  "of an icebudget checkout", file=sys.stderr)
            return 2
    units = _metric_units("per_layer" if args.trace else "end_to_end")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, ".bench_work", f"{name}-{os.getpid()}")
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    try:
        probes, references = [], []
        for i in range(SETUP_PROBES):
            probe_dir = os.path.join(work, f"setup{i}")
            probes.append(_worker(args, probe_dir,
                                  os.path.join(work, f"setup{i}.json"), 0,
                                  SETUP_TIMEOUT_S, "--setup-only"))
            references.append(reference_seconds())
        result_path = os.path.join(results, f"{name}.json")
        extra = ["--fault", args.fault] if args.fault else []
        elapsed = time.perf_counter() - started
        _, result, stderr = _worker(args, os.path.join(work, "run"),
                                    result_path, args.seconds - elapsed,
                                    DEADLINE_S - elapsed, *extra)
    except subprocess.TimeoutExpired as exc:
        print(f"bench: worker timed out after {exc.timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_probe = next((p for p in probes if p[1] is None), None)
    if result is None or failed_probe is not None:
        sys.stderr.write(stderr if result is None else failed_probe[2])
        print("bench: worker failed", file=sys.stderr)
        return 1

    # the generator gate: every set-up wrote byte-identical inputs
    gate = []
    digests = {p[1]["inputs_sha256"] for p in probes} | {result["inputs_sha256"]}
    if len(digests) > 1:
        gate.append(f"generated inputs differ between set-ups: {sorted(digests)}")
    failures = result["failures"] + gate
    result.update(failures=failures, failed=result["failed"] + len(gate),
                  attempted=result["attempted"] + 1,
                  setup_probe_s=[p[0] for p in probes],
                  setup_reference_ms=[r * 1e3 for r in references])
    # set-up seconds scaled to a machine of nominal speed, like the
    # iterations' reference units; the raw median is `run.setup_s`
    result["metrics"]["setup_s"] = statistics.median(
        p[0] * NOMINAL_REFERENCE_S / r for p, r in zip(probes, references))
    result["raw"]["run.setup_s"] = statistics.median(result["setup_probe_s"])
    if args.trace:
        result["per_layer"]["run.setup_s"] = result["raw"]["run.setup_s"]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    source = result["per_layer"] if args.trace else result["metrics"]
    chosen = {key: (source[key], unit) for key, unit in units.items()}
    for item in result["unwrapped"]:
        print(f"bench: trace cannot wrap {item['binding']}: {item['why']}",
              file=sys.stderr)
    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    for key, (value, unit) in chosen.items():
        print(f"{key}\t{value:.6g}\t{unit}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {key: {"value": value, "unit": unit}
                                  for key, (value, unit) in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

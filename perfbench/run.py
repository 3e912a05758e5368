#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build), under perfbench/. The last line of standard output is
the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end_to_end metric of BENCHMARK.json; --trace 1 every
per_layer metric (a layer the workload does not exercise reads 0) and writes
the run's spans to <build>/spans/. Exit status: 0 when every output check
passed, 1 when one failed, 2 on a usage or set-up error (no result printed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / target / "perfbench").resolve()


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(2, f"no repository sources at {ROOT / 'src'}; run from a checkout")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die(2, "build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def validate(result, declared, trace):
    """Fills per-layer metrics the workload does not exercise with 0 and
    returns a list of schema problems."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if name not in units:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != units[name]:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"declared {units[name]}")
    for name, unit in units.items():
        if name not in metrics:
            if trace:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"end-to-end metric {name} missing")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared
                         if m["name"] in metrics}
    return problems


def check_digest(bdir, workload, seed, lines, passed):
    """A sweep's report for one seed must be byte-identical across runs;
    the digest of the first passing run is kept in the build directory."""
    digests = [ln.split()[1] for ln in lines if ln.startswith("digest ")]
    if not digests:
        return None
    path = bdir / "digests" / f"{workload}-{seed}.txt"
    if path.is_file():
        old = path.read_text().strip()
        if old != digests[0]:
            return (f"sweep report digest {digests[0]} differs from "
                    f"{old}, recorded by an earlier run of seed {seed}")
    elif passed:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digests[0] + "\n")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one output before it is checked; the run "
                         "must then fail (used by selftest.py)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(2, f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(2, f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        die(2, "benchmark run timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        die(2, f"benchmark binary exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        die(2, "benchmark binary printed no JSON result")

    problems = validate(result, declared, args.trace)
    if problems:
        die(2, "result does not match BENCHMARK.json: " + "; ".join(problems))
    if proc.returncode != 0:
        result["correct"] = False
    mismatch = check_digest(bdir, args.workload, args.seed, lines,
                            result["correct"])
    if mismatch:
        lines.insert(-1, "FAIL " + mismatch)
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

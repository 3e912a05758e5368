#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Run it from the repository root. For every workload of BENCHMARK.json:

  * a short untraced run and a short traced run must pass, and their result
    must carry exactly the declared end_to_end / per_layer metric names and
    units, with exactly the four result keys;
  * a run with --corrupt, which perturbs one observed output before the
    output checks see it, must fail: nonzero exit and "correct": false.

Every per-layer metric must also be measured (non-zero) by some workload,
except the count of refused requests, which is zero when nothing fails.
Prints one line per check and exits nonzero if any check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAY_BE_ZERO = {"service.refused"}


def run(workload, seed, seconds, trace, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    measured = set()

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(name, 7, args.seconds, trace)
            what = f"{name} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{what}: passes")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the four result keys")
            declared = [(m["name"], m["unit"]) for m in spec[key]]
            emitted = [(n, m["unit"]) for n, m in result["metrics"].items()]
            expect(sorted(emitted) == sorted(declared),
                   f"{what}: metric names and units match BENCHMARK.json")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{what}: attempted >= 1, failed == 0")
            if trace:
                measured |= {n for n, m in result["metrics"].items()
                             if m["value"] != 0}
        code, result = run(name, 8, args.seconds, 0, corrupt=True)
        expect(code != 0 and result is not None and not result["correct"],
               f"{name} --corrupt: a broken output fails the run")

    unmeasured = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in measured | MAY_BE_ZERO]
    expect(not unmeasured,
           "every per-layer metric is measured by some workload"
           + (f" (never: {', '.join(unmeasured)})" if unmeasured else ""))
    print(f"{'FAILED' if problems else 'passed'}: {len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

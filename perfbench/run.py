#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune in the release profile, runs it
and passes its report through, followed by a table of the metrics with
the unit and direction BENCHMARK.json gives each. The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}, each metric {"value", "unit"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones and writes the spans
to perfbench/out/NAME.trace.json.

Exits non-zero without a result when the repository sources are missing,
the build fails, the benchmark fails or its metric names differ from
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join("perfbench", "out")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ("BENCHMARK.json", "dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed, 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    # BENCHMARK.json is the one source of metric names, units and
    # directions; the program reports names and numbers only.
    metrics = spec[section]

    os.makedirs(OUT, exist_ok=True)
    # Keep every file dune writes inside the checkout.
    env = dict(os.environ, XDG_CACHE_HOME=os.path.abspath(os.path.join(OUT, "cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--cache=disabled", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", OUT],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("no result line")
    values = result["values"]
    if list(values) != [m["name"] for m in metrics]:
        sys.stderr.write(run.stdout)
        fail("metric names differ from BENCHMARK.json %s" % section)
    sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
    for m in metrics:
        print("%-34s %16.6g %-9s %s is better"
              % (m["name"], values[m["name"]], m["unit"], m["better"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()

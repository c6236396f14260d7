#!/usr/bin/env python3
"""Build and run the vedliot wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (and the library sources it
links) in $CARGO_TARGET_DIR, default .bench_build; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The metric names of that result are checked against
BENCHMARK.json before it is printed. A traced run also writes a Chrome trace
to <build dir>/traces/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(target: str) -> Path:
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / target


def declared_metrics(trace: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv) -> int:
    if argv == ["--selftest"]:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--trace" not in args:
        sys.exit("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build("perfbench")
    trace = args["--trace"] != "0"
    cmd = [str(binary)] + argv
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.get('--workload')}-{args.get('--seed')}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: no result line (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    names = set(result.get("metrics", {}))
    if names != declared_metrics(trace):
        sys.exit(f"perfbench: reported metrics differ from BENCHMARK.json: "
                 f"{sorted(names ^ declared_metrics(trace))}")
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

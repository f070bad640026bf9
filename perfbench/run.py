#!/usr/bin/env python3
"""End-to-end benchmark of the distconv library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark driver from the library
sources (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), clears every inherited DC_* variable so the
library runs on its defaults, runs one workload and relays the driver's
output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 1 also writes the spans and the metrics registry snapshot to
<build dir>/traces/<workload>-seed<n>.json. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mesh_hybrid", "resnet_sample", "serve_resnet")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then let the build tool decide what is stale."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_driver"


def source_digest():
    """Identifies the measured code when the checkout carries no git data."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds >= 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src").is_dir():
        log("perfbench: no library sources under src/")
        return 1

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("DC_")}
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    print(f"config: commit={commit()} source_sha256={source_digest()}",
          flush=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return proc.returncode
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sl_rules --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest            # tiny scale, about 30 s

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, runs it, stamps its typed record with the
git sha and a hash of src/, and passes its standard output through: the
last line is the result object {"correct", "attempted", "failed",
"metrics"}. Records and span traces are written to .bench_out/. The exit
code is the binary's; it is non-zero when any output was wrong, and 2 when
there is nothing to build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".bench_out")
RUN_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> Path:
    if not (ROOT / "src" / "core" / "is_chase_finite.h").is_file():
        fail(f"no chase sources under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run(binary: Path, workload: str, seed: int, seconds: float, trace: int,
        scale: str) -> tuple[int, str, dict]:
    """Runs the benchmark binary once; returns (exit code, stdout, record)."""
    OUT.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}"
    record_path = OUT / f"{name}.json"
    spans_path = OUT / f"{name}.spans.json"
    record_path.unlink(missing_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale, "--record", str(record_path),
               "--spans", str(spans_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    record = {}
    if record_path.is_file():
        record = json.loads(record_path.read_text())
        record["stamp"].update(stamp())
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    return done.returncode, done.stdout, record


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def selftest(binary: Path) -> int:
    """Checks the output contract and the exact repeat of work counters, at
    the tiny scale."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = []
        code, out, _ = run(binary, workload, 3, 1, 0, "tiny")
        result = result_of(out)
        if code != 0 or not result.get("correct"):
            problems.append("untraced run failed")
        elif set(result["metrics"]) != end_to_end or any(
                m["value"] <= 0 for m in result["metrics"].values()):
            problems.append("end-to-end metrics off contract")
        runs = [run(binary, workload, 3, 1, 1, "tiny") for _ in range(2)]
        if any(code != 0 for code, _, _ in runs):
            problems.append("traced run failed")
        else:
            if set(result_of(runs[0][1])["metrics"]) != per_layer:
                problems.append("per-layer metrics off contract")
            exempt = {c["name"] for c in runs[0][2]["not_repeating"]}
            counters = [{m["name"]: m["value"] for m in record["per_layer"]
                         if m["unit"] == "count" and m["name"] not in exempt}
                        for _, _, record in runs]
            diff = sorted(k for k in counters[0]
                          if counters[0][k] != counters[1].get(k))
            if diff:
                problems.append(f"counters did not repeat: {diff}")
        print(f"{workload}: " + ("; ".join(problems) or "ok"))
        failed = failed or bool(problems)
    print("selftest " + ("failed" if failed else "passed"))
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a workload, or all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    worst = 0
    for workload in workloads:
        code, out, _ = run(binary, workload, args.seed, args.seconds,
                           args.trace, "full")
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())

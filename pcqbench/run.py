#!/usr/bin/env python3
"""pcq repository benchmark: builds the library and the pcqbench program from
source, then runs one workload in its own process.

    python3 pcqbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

--workload is serve_read, ingest_mixed, build_analytics or all (each in its
own process, one after another). --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones; the last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}. Build products go to
.bench_build (or $CARGO_TARGET_DIR) under the repository root. See
pcqbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["serve_read", "ingest_mixed", "build_analytics"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pcqbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, env):
    with open(log, "w") as out:
        done = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              env=env)
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build(build_dir):
    """Configures once, then rebuilds (a no-op when nothing changed)."""
    lib = build_dir / "pcq"
    bench = build_dir / "pcqbench"
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    if not (lib / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(ROOT), "-B", str(lib),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DPCQ_BUILD_TESTS=OFF", "-DPCQ_BUILD_BENCH=OFF",
                    "-DPCQ_BUILD_EXAMPLES=OFF"], build_dir / "pcq-configure.log", env)
    run_logged(["cmake", "--build", str(lib), "-j", jobs], build_dir / "pcq-build.log",
               env)
    if not (bench / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(bench),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DPCQ_SOURCE={ROOT}", f"-DPCQ_LIB_BUILD={lib}"],
                   build_dir / "pcqbench-configure.log", env)
    run_logged(["cmake", "--build", str(bench), "-j", jobs],
               build_dir / "pcqbench-build.log", env)
    return bench / "pcqbench"


def git_sha():
    # The checkout the benchmark runs in need not be a git repository; only
    # a repository rooted right here is asked, never a parent directory.
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(binary, workload, args, sha, build_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    want = expected_metrics(args.trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail(f"{workload} metrics {sorted(got.items())} do not match "
                 f"BENCHMARK.json {sorted(want.items())}")
    return lines, result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no pcq sources next to the benchmark (looked in {ROOT})")

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(build_dir)
    sha = git_sha()
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        lines, _, rc = run_workload(binary, workload, args, sha, build_dir)
        print("\n".join(lines), flush=True)
        code = max(code, rc)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two pcq checkouts on the repository benchmark, pair by pair.

    python3 scripts/bench_pairs.py --parent ../pcq-base --change . \
        --name natural_batching --workloads serve_read --pairs 10 \
        --first-seed 11 --seconds 10 --trace 0 --out bench/results

Runs N alternating pairs of `python3 pcqbench/run.py` per workload (a
`--workloads` entry W:N overrides --pairs for W): pair i
uses seed first_seed + i and runs the parent first on even i, the change
first on odd i, so slow drift of the host hits both sides alike. Each
checkout builds its own copy under its .bench_build/. The result is one
BENCH_<name>.json with the host lines of both checkouts, every run's
metrics and, per metric, the median and quartiles of each side, the number
of pairs the change won, and a verdict against the bound that the parent's
BENCHMARK.json sets for end-to-end metrics:

    regression    the change's median is worse than the parent's by more
                  than the bound
    gain          the change won at least 90% of the pairs and its median
                  beats the parent's by more than the parent's quartile
                  spread (q3 - q1, relative to the parent's median)
    within bound  neither of the above
    not gated     a per-layer metric (no bound) that is not a gain

Exits 1 if any run reported correct=false or a failed operation, or if any
metric's verdict is "regression"; 0 otherwise.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# Lines of a pcqbench run worth keeping next to its metrics.
KEPT_PREFIXES = ("host ", "run ", "regime ", "check ", "decomposition ")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "pcqbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                 f"{done.returncode}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "lines": [l for l in lines[:-1] if l.startswith(KEPT_PREFIXES)],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(name, spec, pairs):
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    higher = spec.get("better") == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if (b > a if higher else b < a))
    if p_med != 0:
        gain = (c_med - p_med) / abs(p_med) * (1 if higher else -1)
        spread = (p_q3 - p_q1) / abs(p_med)
    else:
        gain = 0.0 if c_med == 0 else math.copysign(math.inf,
                                                    c_med if higher else -c_med)
        spread = 0.0
    bound = spec.get("bound")
    if bound is not None and -gain > bound:
        verdict = "regression"
    elif wins >= math.ceil(0.9 * len(pairs)) and gain > spread:
        verdict = "gain"
    else:
        verdict = "within bound" if bound is not None else "not gated"
    return {
        "unit": spec["unit"], "better": spec.get("better"), "bound": bound,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "gain_rel": gain if math.isfinite(gain) else str(gain),
        "parent_spread_rel": spread,
        "wins": wins, "pairs": len(pairs), "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--name", required=True, help="output is BENCH_<name>.json")
    parser.add_argument("--workloads", default="serve_read,ingest_mixed,build_analytics",
                        help="comma-separated; W:N runs N pairs of W")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    doc = {
        "name": args.name,
        "command": "python3 pcqbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace {args.trace}",
        "pairs": args.pairs, "first_seed": args.first_seed,
        "order": "parent first on even pairs, change first on odd pairs",
        "host": {}, "workloads": {},
    }
    ok = True
    for entry in args.workloads.split(","):
        workload, _, count = entry.partition(":")
        n_pairs = int(count) if count else args.pairs
        pairs = []
        for i in range(n_pairs):
            seed = args.first_seed + i
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {}
            for side in sides:
                run = run_once(getattr(args, side), workload, seed,
                               args.seconds, args.trace)
                for line in run["lines"]:
                    if line.startswith("host "):
                        doc["host"].setdefault(side, line)
                ok &= run["correct"] and run["failed"] == 0
                pair[side] = run
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{n_pairs} seed {seed} done",
                  file=sys.stderr, flush=True)
        metrics = {name: summarise(name, specs[name], pairs)
                   for name in pairs[0]["parent"]["metrics"] if name in specs}
        ok &= all(m["verdict"] != "regression" for m in metrics.values())
        doc["workloads"][workload] = {"pairs": n_pairs, "metrics": metrics,
                                      "runs": pairs}
        for name, m in metrics.items():
            print(f"{workload:16} {name:28} parent {m['parent']['median']:12.4g} "
                  f"change {m['change']['median']:12.4g} wins {m['wins']:2}/"
                  f"{m['pairs']} {m['verdict']}")
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

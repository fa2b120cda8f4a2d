#!/usr/bin/env python3
"""Two sets of runs of one build, and how far they agree.

Runs the command in BENCHMARK.json `--runs` times per workload and set,
each run with its own seed (set 1 seeds 1..runs, set 2 the next runs
seeds), and writes a markdown report: per workload and end-to-end metric,
each set's median and inter-quartile distance as a share of its median
(`statistics.quantiles(values, n=4)`), and how much worse set 2's median is
than set 1's, against the metric's bound. Run it from the repository root:

    python3 crates/bench/src/bin/e2e_bench/stability.py \
        [--runs 10] [--out results/e2e_bench/stability.md] [--report]

The first run builds the benchmark. Raw values and run times go to the
`.json` file next to the report; `--report` rewrites the report from that
file without running anything (after a bound in BENCHMARK.json changed).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default="results/e2e_bench/stability.md")
    parser.add_argument("--report", action="store_true",
                        help="rewrite the report from the saved raw values")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    raw_path = os.path.splitext(args.out)[0] + ".json"
    if args.report:
        with open(raw_path) as f:
            saved = json.load(f)
        values, walls = saved["values"], saved["walls"]
        args.runs = len(values["1"][workloads[0]][metrics[0]["name"]])
    else:
        values = {}  # set -> workload -> metric -> [values]
        walls = []
        for s in ("1", "2"):
            for w in workloads:
                for i in range(args.runs):
                    seed = (int(s) - 1) * args.runs + i + 1
                    got, wall = run(bench["command"], w, seed, bench["run_seconds"])
                    walls.append(wall)
                    for name, v in got.items():
                        values.setdefault(s, {}).setdefault(w, {}).setdefault(name, []).append(v)
                    print(f"set {s} {w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    lines = [
        "# e2e_bench stability: two sets of runs of one build",
        "",
        f"Generated by `stability.py`: {args.runs} runs per workload and set, each with its "
        f"own seed (set 1 seeds 1–{args.runs}, set 2 seeds {args.runs + 1}–{2 * args.runs}), "
        f"`run_seconds` {bench['run_seconds']}. Host: {os.cpu_count()} CPUs, "
        f"{platform.system()} {platform.release()}; runs took {statistics.mean(walls):.1f} s "
        f"on average (longest {max(walls):.1f} s).",
        "",
        "Spread is the inter-quartile distance over the median of one set "
        "(`statistics.quantiles(values, n=4)`); *worse* is how much set 2's median is worse "
        "than set 1's (negative: better). Both must stay within the bound (the spread of "
        "`setup_s` excepted).",
        "",
        "| workload | metric | set 1 median | set 1 spread | set 2 median | set 2 spread "
        "| worse | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            m1, s1 = spread(values["1"][w][name])
            m2, s2 = spread(values["2"][w][name])
            worse = (m2 / m1 - 1) if m["better"] == "lower" else (m1 / m2 - 1)
            spread_ok = name == "setup_s" or max(s1, s2) <= bound
            ok = spread_ok and worse <= bound
            failures += not ok
            lines.append(
                f"| {w} | `{name}` | {m1:.5g} {m['unit']} | {s1:.3f} | {m2:.5g} {m['unit']} "
                f"| {s2:.3f} | {worse:+.3f} | {bound} | {'yes' if ok else 'NO'} |"
            )
    lines += [
        "",
        "## Bounds",
        "",
        "A bound is shared by every workload, so it must cover the noisiest one. Per metric: "
        "the largest spread and the largest *worse* over both sets and all workloads, and the "
        "bound in `BENCHMARK.json` as a multiple of the larger of the two.",
        "",
        "| metric | largest spread | largest worse | bound | bound / largest |",
        "|---|---|---|---|---|",
    ]
    for m in metrics:
        name, bound = m["name"], m["bound"]
        spreads = [spread(values[s][w][name])[1] for s in ("1", "2") for w in workloads]
        worst = []
        for w in workloads:
            m1, m2 = spread(values["1"][w][name])[0], spread(values["2"][w][name])[0]
            worst.append((m2 / m1 - 1) if m["better"] == "lower" else (m1 / m2 - 1))
        gated = max(max(spreads) if name != "setup_s" else 0.0, max(worst), 1e-9)
        lines.append(
            f"| `{name}` | {max(spreads):.3f}{' (not gated)' if name == 'setup_s' else ''} "
            f"| {max(worst):+.3f} | {bound} | {bound / gated:.1f} |"
        )
    lines.append("")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        f.write("\n".join(lines))
    with open(raw_path, "w") as f:
        json.dump({"values": values, "walls": walls}, f, indent=1)
    print("\n".join(lines))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Record a trajectory point: run.py over several seeds, with quartiles.

    python3 perfbench/record.py --label a2bf8df --trace 0 \\
        --workloads prxy,noisy_qos,paper_setup --seeds 201-210

Runs every (workload, seed) pair in turn, prints each metric's median,
quartiles and spread (inter-quartile range over the median, the figure
BENCHMARK.json's bounds are judged against), and merges the runs into
the point named --label in perfbench/trajectory.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def host():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 201-210 or 5,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", default=str(HERE / "trajectory.json"))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = Path(args.out)
    points = json.loads(out.read_text()) if out.is_file() else []
    point = next((p for p in points if p["label"] == args.label), None)
    if point is None:
        point = {"label": args.label, "host": host(), "runs": {}}
        points.append(point)

    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit(f"{name} seed {seed} failed:\n{r.stderr[-2000:]}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        summary = {k: summarize([r["metrics"][k] for r in runs])
                   for k in runs[0]["metrics"]}
        point["runs"][f"{name}/trace{args.trace}/seeds{args.seeds}"] = {
            "seconds": seconds, "runs": runs, "summary": summary}
        for k, s in summary.items():
            spread = s.get("spread")
            flag = ""
            if spread is not None and k in bounds:
                flag = ("over bound" if spread > bounds[k] else
                        "over bound/3" if spread > bounds[k] / 3 else "")
            print(f"  {k:28s} median {s['median']:>14.6g} spread "
                  f"{'' if spread is None else f'{spread:.4f}':>7s} {flag}")
        out.write_text(json.dumps(points, indent=1) + "\n")


if __name__ == "__main__":
    main()

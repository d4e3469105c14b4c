"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json

Runs are sequential, with the settings in ``BENCHMARK.json``.  For each
end-to-end metric the spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median; a spread above a third of the metric's bound is marked ``WIDE``.
``--trace 1`` summarizes the per-layer metrics instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the summary as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    seeds = seed_list(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"],
               "trace": args.trace, "workloads": {}}
    for workload in names:
        runs, details = [], []
        for seed in seeds:
            detail, result = run_once(spec, workload, seed, args.trace)
            runs.append(result)
            details.append({k: v for k, v in detail.items() if k != "env"})
            summary.setdefault("env", detail["env"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        stats = {}
        for name in bounds:
            stats[name] = summarize([r["metrics"][name]["value"] for r in runs])
            stats[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": stats,
            "details": details,
        }
        print(f"\n{workload} ({len(seeds)} seeds, correct="
              f"{summary['workloads'][workload]['correct']})")
        for name, st in stats.items():
            bound = bounds[name]
            flag = ""
            if bound is not None and st["spread"] > bound / 3:
                flag = "  WIDE"
            print(f"  {name:36s} median {st['median']:<14.6g} {st['unit']:6s}"
                  f" spread {st['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/stability.py --seeds 1-10 --workloads ququart_stream,cli_invocations

Runs ``run.py`` once per workload and seed, one after another, and prints for
each metric the median over seeds, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``) and the metric's bound from
BENCHMARK.json.  It exits 1 when a run fails or a spread is above its
bound.  ``--out FILE`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    parser.add_argument("--seconds", type=float, default=doc["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    runs = []
    status = 0
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "result": result, "details": json.loads(lines[-2])})
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {shown}", flush=True)
    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for workload in args.workloads.split(","):
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == workload]
        if len(mine) < 2:
            continue
        for name, bound in bounds.items():
            values = [m[name]["value"] for m in mine]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if spread > bound:
                status = 1
            print(f"{workload:<16} {name:<16} {median:>12.5g} {spread:>8.4f} {bound:>6}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())

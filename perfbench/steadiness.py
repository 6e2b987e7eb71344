"""Run the benchmark once per seed and report each end-to-end metric's spread.

  python3 perfbench/steadiness.py --workload reverify --seeds 1 2 3 4 5

Runs are sequential.  For each metric it prints the median, the distance
between first and third quartile as a share of the median, and that spread
against a third of the metric's bound in BENCHMARK.json, then the median and
longest run time.  Raw results, with each run's sample counts and pass
times, go to .perfbench/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        run_s = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        *_, info, last = proc.stdout.splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, "run_s": run_s, "samples": json.loads(info)["samples"], **result})
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({run_s:.1f} s): {shown}", flush=True)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steadiness-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    worst = 0.0
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        share = spread / (metric["bound"] / 3)
        if metric["name"] != "setup_s":
            worst = max(worst, share)
        print(
            f"{metric['name']:<14} median {statistics.median(values):12.5f}  "
            f"spread {spread:7.4f}  bound/3 {metric['bound'] / 3:6.4f}  ratio {share:5.2f}"
        )
    print(f"worst spread / (bound/3) excluding setup_s: {worst:.2f}")
    print(f"run time: median {statistics.median(r['run_s'] for r in runs):.1f} s, max {max(r['run_s'] for r in runs):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

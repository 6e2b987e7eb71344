"""Benchmark of arith-forge: cold time to verdict on three workloads.

  python3 perfbench/run.py --workload {sweep,reverify,batteries} \
      [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds `src/forge`.  Every pass runs in a fresh
interpreter (worker.py), so the program's caches start cold, as they do for
each `forge` invocation.  `FORGE_JOBS` is removed from the passes'
environment, so the sweep runs with the default `--jobs 1`.

--trace 0  runs set-up three times (once for reverify), then cold passes
           until --seconds have passed (at least two), and prints the
           end-to-end metrics: medians over the passes and set-ups; item
           percentiles are taken over each item's median time.
--trace 1  runs one untraced cold pass (plus a warm second pass in the same
           process for sweep and reverify) and one traced cold pass, checks
           that both give byte-identical outputs, writes the spans once to
           .perfbench/trace-<workload>-seed<seed>.jsonl and prints the
           per-layer metrics.  --seconds does not apply.

Every verdict is checked against the known answer and the recorded output
digests (digests.json).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it states the
provenance and sample counts.  The exit code is 0 only when every answer is
right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs 3 times, or once when it takes over 10 s: reverify's set-up
# builds its whole corpus (about 16 s), and three would use up the run budget
SETUP_REPEATS = 3
SETUP_BUDGET_S = 10
MIN_PASSES = 2  # a sweep pass takes 16-21 s; one pass alone made item percentiles noisy
RUN_BUDGET_S = 170  # every run must end within 180 s
WARM_WORKLOADS = {"sweep": "sweep.run_sweep.warm_s", "reverify": "toraldata.verify_datum.warm_s"}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "FORGE_JOBS"}
        self.env["PYTHONHASHSEED"] = "0"  # same set order, hence same work, in every pass

    def child(self, request: dict) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps({"workload": self.workload, **request}),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{request['op']} did not finish within the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{request['op']} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setups(self, seed: int) -> list[dict]:
        runs = []
        start = time.monotonic()
        while not runs or (len(runs) < SETUP_REPEATS and time.monotonic() - start < SETUP_BUDGET_S):
            runs.append(self.child({"op": "setup", "seed": seed}))
        if len({json.dumps(r["inputs"], sort_keys=True) for r in runs}) != 1:
            raise BenchError("the same seed gave different inputs")
        return runs

    def run_pass(self, inputs: dict, trace: bool = False, warm: bool = False) -> dict:
        return self.child({"op": "pass", "inputs": inputs, "trace": trace, "warm": warm})


def provenance(args, setups: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "forge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        **setups[0]["versions"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "forge_jobs_removed": "FORGE_JOBS" in os.environ,
    }


def check(workload: str, inputs: dict, passes: list[dict], seed: int) -> tuple[int, int, list[str]]:
    """Attempted items, failed items and problems over all passes of one run."""
    digests = json.loads((HERE / "digests.json").read_text())
    attempted = failed = 0
    problems = []
    for result in passes:
        found = workloads.check_pass(workload, inputs, result, digests, seed)
        if result["digests"] != passes[0]["digests"]:
            found.append("outputs differ between passes of the same inputs")
        attempted += len(result["items"])
        failed += min(len(found), len(result["items"]))
        problems += found
    return attempted, failed, problems


def end_to_end(args, runner: Runner, setups: list[dict]) -> tuple[dict, dict, list[dict]]:
    inputs = setups[0]["inputs"]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(runner.run_pass(inputs))
    item_s = stats.item_medians([p["items"] for p in passes])
    n_items = len(item_s)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_ms": (stats.nearest_rank(item_s, 50) * 1e3, "ms"),
        "item_p90_ms": (stats.nearest_rank(item_s, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(s["import_s"] + s["inputs_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    samples = {
        "setups": len(setups),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "items": n_items,
        "p90_samples_beyond": stats.samples_beyond(n_items, 90),
        "highest_tail_percentile": stats.highest_tail_percentile(n_items),
    }
    if samples["p90_samples_beyond"] < stats.MIN_BEYOND:
        raise BenchError(f"{n_items} items per pass leave fewer than {stats.MIN_BEYOND} beyond p90")
    return metrics, samples, passes


def per_layer(args, runner: Runner, setups: list[dict]) -> tuple[dict, dict, list[dict]]:
    inputs = setups[0]["inputs"]
    cold = runner.run_pass(inputs, warm=args.workload in WARM_WORKLOADS)
    traced = runner.run_pass(inputs, trace=True)
    trace = traced.pop("trace")
    write_spans(args, trace["spans"])
    agg = stats.aggregate_spans(trace["spans"])
    counts, caches = trace["counts"], trace["caches"]
    metrics = {}
    for name, unit, _ in tracing.per_layer_metrics():
        prefix, _, field = name.rpartition(".")
        value = agg.get(prefix, {}).get(field, counts.get(name, 0))
        metrics[name] = (float(value) if unit == "s" else value, unit)
    bx = caches["build_extension"]
    bx_calls = bx["hits"] + bx["misses"]
    metrics["cli.import.s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["rootsys.build_root_system.misses"] = (caches["build_root_system"]["misses"], "count")
    metrics["ffield.build_extension.calls"] = (bx_calls, "count")
    metrics["ffield.build_extension.hit_ratio"] = (bx["hits"] / bx_calls if bx_calls else 0.0, "ratio")
    for workload, name in WARM_WORKLOADS.items():
        metrics[name] = (cold["warm"]["wall_s"] if workload == args.workload else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / cold["wall_s"], "ratio")
    passes = [cold, traced] + ([cold.pop("warm")] if "warm" in cold else [])
    samples = {"setups": len(setups), "untraced_passes": 1, "traced_passes": 1, "spans": len(trace["spans"])}
    return metrics, samples, passes


def write_spans(args, spans: list) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for idx, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "forge" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'forge'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, time.monotonic() + RUN_BUDGET_S)
    try:
        setups = runner.setups(args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, passes = measure(args, runner, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check(args.workload, setups[0]["inputs"], passes, args.seed)
    if not args.trace:
        metrics["correct_ratio"] = ((attempted - failed) / attempted, "ratio")
    info = {
        "provenance": provenance(args, setups),
        "samples": samples,
        "digests": passes[0]["digests"],
        "problems": problems[:20],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

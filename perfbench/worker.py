"""One set-up or one pass in a fresh interpreter, so every pass starts cold.

Reads a JSON request on stdin and prints one JSON result on stdout:

  {"op": "setup", "workload": ..., "seed": ...}
      time `import forge.cli` and making the workload's inputs from the seed
  {"op": "pass", "workload": ..., "inputs": ..., "trace": bool, "warm": bool}
      run one cold pass; with "trace" record spans and counters; with "warm"
      run a second pass in the same process and time it too
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_forge() -> float:
    if "FORGE_JOBS" in os.environ:
        raise SystemExit("FORGE_JOBS is set: the benchmark measures the default --jobs 1")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import forge.cli  # noqa: F401  (the user-facing entry point)

    elapsed = time.perf_counter() - t0
    if Path(forge.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported forge from {forge.cli.__file__}, not from {SRC}")
    return elapsed


def setup(request: dict) -> dict:
    import_s = _import_forge()
    import workloads

    t0 = time.perf_counter()
    inputs = workloads.make_inputs(request["workload"], request["seed"])
    inputs_s = time.perf_counter() - t0
    import sympy

    return {
        "import_s": import_s,
        "inputs_s": inputs_s,
        "inputs": inputs,
        "versions": {"python": platform.python_version(), "sympy": sympy.__version__},
    }


def run(request: dict) -> dict:
    import workloads

    _import_forge()
    tracer = None
    if request["trace"]:
        from forge import ffield, rootsys
        from tracing import Tracer

        # the lru-cached originals, before the tracer wraps build_root_system
        caches = {"build_extension": ffield.build_extension, "build_root_system": rootsys.build_root_system}
        tracer = Tracer()
        tracer.install_forge_layers()
    result = workloads.run_pass(request["workload"], request["inputs"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "caches": {name: fn.cache_info()._asdict() for name, fn in caches.items()},
        }
    if request["warm"]:
        result["warm"] = workloads.run_pass(request["workload"], request["inputs"])
    return result


def main() -> int:
    request = json.load(sys.stdin)
    result = setup(request) if request["op"] == "setup" else run(request)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

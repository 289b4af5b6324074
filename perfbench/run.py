"""End-to-end benchmark of the S3CA reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload id-greedy --seed 2019 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run that times the calls into each
layer (see ``layers.py``) and writes its spans and per-layer table under
``.bench_build/perfbench/``.  The workloads and their parameters are in
``workloads.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".bench_build" / "perfbench"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {source}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    # The C kernel's compiled library, and the compiler's temporary files,
    # stay inside the checkout.
    os.environ["REPRO_KERNEL_CACHE_DIR"] = str(OUTPUT / "kernels")
    (OUTPUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUTPUT / "tmp")
    sys.path.insert(0, str(source))

    from repro.diffusion.kernels import load_kernel

    # Compile (first run in a checkout) or load the kernel before anything
    # is timed, so set-up always sees a warm on-disk cache.
    load_kernel()

    params = workloads[args.workload]
    if params["kind"] == "server":
        from server_workload import ServerWorkload as Workload
    else:
        from solve_workloads import SolveWorkload as Workload
    workload = Workload(params, args.seed)
    if args.trace:
        trace_path = OUTPUT / f"trace-{args.workload}-seed{args.seed}.json"
        outcome = workload.run_traced(args.seconds, trace_path)
        from layers import PER_LAYER as units
    else:
        outcome = workload.run(args.seconds)
        units = END_TO_END

    metrics = outcome["metrics"]
    missing = [name for name in units if name not in metrics]
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in missing:
        print(f"check failed: metric {name} was not measured", file=sys.stderr)
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload:>14}  {name:<28} {metrics[name]:>14.6g} {unit}")
    correct = not workload.problems and not missing and outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

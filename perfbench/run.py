"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` is a timed run: it prints every end-to-end metric.
``--trace 1`` is the traced run: it wraps the public entry points of each
layer, prints every per-layer metric, and writes the per-layer table and
the span file under ``.bench_out/``.  Either way the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``), and the exit code is non-zero when a
correctness check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import Outcome, emit, require_source  # noqa: E402

#: workload -> (module, timed-run function, traced-run function)
WORKLOADS = {
    "sweep": ("sim_workloads", "run_sweep", "trace_sweep"),
    "order-scale": ("sim_workloads", "run_order_scale", "trace_order_scale"),
    "serve-open": ("serve_open", "run_serve_open", "trace_serve_open"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    import perlayer

    module, timed, traced = WORKLOADS[args.workload]
    run = getattr(importlib.import_module(module),
                  traced if args.trace else timed)
    out = Outcome()
    run(args.seed, args.seconds, out)
    if args.trace:
        perlayer.complete(out)
    return emit(out)


if __name__ == "__main__":
    raise SystemExit(main())

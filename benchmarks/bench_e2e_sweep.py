"""End-to-end sweep benchmark: the six-config evaluation, wall-clocked.

The microbenchmarks (``bench_rule_engine.py``, ``bench_obs_overhead.py``)
guard individual hot paths; this one guards the product the user actually
runs: ``repro sweep`` — all six architecture × coordination configs of
the Table 4-6 evaluation at the fixed seed, serially, so per-config wall
times are comparable run to run.

Two things are measured and committed as ``e2e_baseline.json``:

* **Determinism counters** — committed/aborted/message counts per config.
  These must match the baseline *exactly* (the whole simulation is a
  deterministic function of the seed); any drift means behaviour changed
  and the baseline must be consciously recommitted.
* **Calibrated wall ratio** — each sweep pass's wall time divided by
  the wall time of a fixed pure-Python calibration loop, averaged over
  the loop run just before and just after that pass; the best pass's
  ratio is reported.  Machine speed cancels out of the ratio, so a
  committed ceiling catches real slowdowns (a hot path de-optimised,
  accidental tracing in the benchmark path) without CI-runner jitter
  tripping it.  Bracketing each pass matters on a shared host, whose
  speed drifts within a run: the same loop read 68-101 ms across
  back-to-back runs on a 2-core container.

Run it two ways::

    pytest benchmarks/bench_e2e_sweep.py            # counters-only check
    python benchmarks/bench_e2e_sweep.py --json BENCH_e2e.json
    python benchmarks/check_e2e_baseline.py BENCH_e2e.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.analysis.sweep import run_sweep, sweep_tasks

from harness import environment_metadata

SEED = 7                 # the canonical evaluation seed
REPEATS = 2              # sweep passes; the lowest-ratio pass is reported
CALIBRATION_ROUNDS = 5   # min-of-N for the calibration loop

BASELINE = pathlib.Path(__file__).with_name("e2e_baseline.json")


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Best-of-N wall time of a fixed pure-Python workload.

    Dict churn + integer arithmetic, the same mix the simulator spends
    its time in, so interpreter/CPU speed scales both measurements
    roughly equally and their ratio is machine-portable.
    """

    def work() -> int:
        acc = 0
        table: dict[int, int] = {}
        for i in range(400_000):
            table[i & 1023] = i
            acc += table.get((i + 7) & 1023, i)
        return acc

    times = []
    for __ in range(rounds):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return min(times)


def measure(repeats: int = REPEATS, calibrated: bool = True) -> dict:
    """Run the sweep ``repeats`` times and report the pass with the
    lowest wall ratio: its per-config walls, its total wall and the mean
    of the calibrations bracketing it, so ``total_wall_s / calibration_s``
    is ``wall_ratio``.  ``calibrated=False`` skips the calibration loop
    (counters only; no wall ratio)."""
    tasks = sweep_tasks(seed=SEED)
    counters = None
    events: list[int] = []
    best = None  # (ratio, walls, calibration) of the best pass so far
    before = calibrate() if calibrated else 1.0
    for __ in range(repeats):
        sweep = run_sweep(tasks, workers=1)
        after = calibrate() if calibrated else 1.0
        rows = sweep.run_log
        walls = [row["wall_time_s"] for row in rows]
        calibration = (before + after) / 2
        ratio = sum(walls) / calibration
        if best is None or ratio < best[0]:
            best = (ratio, walls, calibration)
        before = after
        seen = [(row["label"], row["committed"], row["aborted"],
                 row["messages"]) for row in rows]
        if counters is None:
            counters = seen
            events = [row.get("events", 0) for row in rows]
        else:
            assert seen == counters, (
                "sweep counters differ between repeats at the same seed — "
                "the simulation is no longer deterministic"
            )
    ratio, walls, calibration = best
    numbers = {
        "seed": SEED,
        "repeats": repeats,
        "configs": [
            {"label": label, "committed": committed, "aborted": aborted,
             "messages": messages, "wall_s": round(wall, 4),
             "events": count}
            for (label, committed, aborted, messages), wall, count
            in zip(counters, walls, events)
        ],
        "total_wall_s": round(sum(walls), 4),
        "environment": environment_metadata(),
    }
    if calibrated:
        numbers["calibration_s"] = round(calibration, 6)
        numbers["wall_ratio"] = round(ratio, 2)
    return numbers


def test_e2e_sweep_counters_match_committed_baseline():
    """Determinism gate: one sweep pass must reproduce the baseline."""
    numbers = measure(repeats=1, calibrated=False)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    measured = {c["label"]: (c["committed"], c["aborted"], c["messages"])
                for c in numbers["configs"]}
    expected = {c["label"]: (c["committed"], c["aborted"], c["messages"])
                for c in baseline["configs"]}
    assert numbers["seed"] == baseline["seed"]
    assert measured == expected, (
        "sweep counters drifted from the committed e2e baseline — if the "
        "change is intentional, regenerate benchmarks/e2e_baseline.json"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the measured numbers to FILE")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args()
    numbers = measure(repeats=args.repeats)
    print(f"e2e sweep (seed {SEED}, best of {args.repeats} passes): "
          f"{numbers['total_wall_s']:.2f}s total wall, "
          f"calibration {numbers['calibration_s'] * 1e3:.1f}ms, "
          f"wall ratio {numbers['wall_ratio']:.1f}")
    for config in numbers["configs"]:
        print(f"  {config['label']:<26} {config['wall_s']:7.3f}s  "
              f"committed {config['committed']} aborted {config['aborted']} "
              f"messages {config['messages']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(numbers, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end benchmark of the streaming daemon, with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload learn_heavy --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics. The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every correctness check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import env


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != env.HASH_SEED:
        # The hash seed is read at interpreter start: re-execute this
        # process (same pid, no child) with the fixed one.
        os.environ["PYTHONHASHSEED"] = env.HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    env.pin_threads()
    if not env.add_src_path():
        print(f"perfbench: program sources not found under {env.SRC}", file=sys.stderr)
        return 2
    import harness
    import manifest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(env.WORK_DIR, exist_ok=True)
    environment = env.record(env.WORK_DIR)
    workload = WORKLOADS[args.workload]
    try:
        outcome = harness.run(
            workload, args.seed, args.seconds, bool(args.trace), env.WORK_DIR
        )
    except Exception:
        traceback.print_exc()
        return 1

    units = manifest.units(bool(args.trace))
    details = dict(outcome.details, environment=environment,
                   failures=outcome.tally.failures)
    for key, value in environment.items():
        print(f"env {key}: {value}")
    for key, value in outcome.details.items():
        print(f"{key}: {value}")
    for failure in outcome.tally.failures:
        print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    record_path = os.path.join(
        env.WORK_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": outcome.metrics, "details": details,
                   "series": outcome.series}, handle, indent=2, default=str)
    print(json.dumps({
        "correct": not outcome.tally.failures,
        "attempted": outcome.tally.attempted,
        "failed": len(outcome.tally.failures),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not outcome.tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())

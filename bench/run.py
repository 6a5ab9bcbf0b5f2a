"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fig6-cold --seed 0 [--seconds 30] [--trace 0|1]

Without ``--trace`` (or with ``--trace 0``) the run reports the
end-to-end metrics; with ``--trace`` / ``--trace 1`` it reports the
per-layer metrics of a traced run.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, passes, errors) is written under
``.bench_build/results/``.  Exit code 0 means every correctness check
passed, 1 that one failed, 2 that the checkout holds no program; after
SIGTERM or SIGHUP the run stops what it started and exits with 128 + the
signal number.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib import env, procs


def main(argv: list[str] | None = None) -> int:
    # The workloads are the ones BENCHMARK.json declares; the self-tests
    # check that the harness implements exactly those.
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="length of the measured window"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting per-layer metrics",
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record this run's results digest as the committed seed-0 digest",
    )
    args = parser.parse_args(argv)
    if args.write_expected and args.seed != 0:
        parser.error("--write-expected records the seed-0 digest; use --seed 0")

    try:
        env.activate()
    except env.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    procs.exit_on_signals()
    procs.tie_forks()
    from benchlib import runner

    record = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.write_expected
    )
    results = env.BUILD / "results"
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"{record['workload']} seed={args.seed} trace={args.trace} "
        f"passes={len(record['passes'])} attempted={record['attempted']} "
        f"failed={record['failed']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in sorted(record["info"].items()):
        if name not in record["metrics"]:
            print(f"  info {name:<31} {value:>16.6f}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"record: {path}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

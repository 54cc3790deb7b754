"""End-to-end benchmark of the package: paper tables, the one-bit grid,
and served runs, each untraced for the end-to-end figures and traced for
the per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload, both modes

Workloads (inputs are drawn from ``--seed``; the same seed gives the
same inputs):

* ``tables`` — Table 1 (n=6) and Table 2 (n=5) documents via
  ``run_scenario`` with no store; the first operation is the shipped
  configs (seed 0), checked byte for byte against ``python -m repro run``.
* ``grid`` — the one-bit broadcast grid of ``configs/onebit_counting.json``
  at its shipped sizes plus a larger tier (24–96 vertices), direct.
* ``served`` — ``python -m repro serve --pools 1`` on a fresh root, one
  closed-loop client mixing cold submissions, warm 303 re-submissions and
  304 revalidations; served documents are checked against direct runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it are the readable report.  Exit status: 0 when every check
passed, 1 when one failed, 2 when started outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import traceback

import common
from report import Outcome, print_result

WORKLOADS = ("tables", "grid", "served")
#: A single run must end well within three minutes.
RUN_DEADLINE_SECONDS = 170


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline(f"run exceeded {RUN_DEADLINE_SECONDS}s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(name)
    try:
        if name == "served":
            import served

            served.measure(seed, seconds, trace, outcome)
        else:
            import direct

            direct.measure(direct.WORKLOADS[name], seed, seconds, trace, outcome)
    except Exception as exc:  # noqa: BLE001 - any error fails the run
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail(f"{type(exc).__name__}: {exc}")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run (per mode with --workload all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.check_checkout()
    except common.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.pin_environment()
    print(json.dumps({"environment": common.environment_stamp(),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}, sort_keys=True))

    if args.workload != "all":
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(RUN_DEADLINE_SECONDS)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
        outcome.print(bool(args.trace))
        result = outcome.result()
        print_result(result)
        return 0 if result["correct"] else 1

    # Each workload and mode runs in a child process of its own, so peak
    # memory, loaded modules and installed spans never carry over.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            sys.stdout.flush()
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = completed.stdout.splitlines()
            print("\n".join(lines[1:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            combined["correct"] = combined["correct"] and result["correct"] \
                and completed.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print_result(combined)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

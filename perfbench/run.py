"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload sim-figure2 --seed 1 --seconds 10 --trace 0

Prints one line per metric (name, value, unit, sample count), then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` reports the per-layer split
of a traced run.  Exits 1 when an output check fails, and 2 when the
program under test cannot be imported.

``--fixture NAME`` plants one known-bad output (see ``FIXTURES``) so
that the check guarding it must fail the run.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("sim-figure2", "service-recovery")

#: Known-bad fixtures, each with the workload whose check it must trip.
FIXTURES = {
    "sim-invariants": "sim-figure2",
    "sim-digest": "sim-figure2",
    "sim-bandwidth": "sim-figure2",
    "sim-chain": "sim-figure2",
    "recovery-wal-event": "service-recovery",
    "recovery-read-answer": "service-recovery",
}


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)  # perfbench.common.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", choices=sorted(FIXTURES), default="")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.fixture and FIXTURES[args.fixture] != args.workload:
        parser.error(f"fixture {args.fixture} belongs to {FIXTURES[args.fixture]}")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    # Import the benchmark as a package, never as loose modules that
    # could shadow the standard library.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.path.insert(0, str(ROOT))
    from perfbench import common
    from perfbench.metrics import END_TO_END, PER_LAYER

    sys.path.insert(0, str(common.SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test from {common.SRC}: {exc}",
              file=sys.stderr)
        return 2
    if common.SRC not in Path(repro.__file__).resolve().parents:
        print(f"imported {repro.__file__}, not the checkout's {common.SRC}", file=sys.stderr)
        return 2
    if args.workload == "sim-figure2":
        from perfbench import sim_figure2 as workload
    else:
        from perfbench import service_recovery as workload

    workdir = common.make_workdir()
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), args.fixture, workdir)
    except common.CheckFailed as exc:
        common.emit(args.workload, False, 1, 1, {}, [f"CHECK FAILED: {exc}"])
        return 1
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}  run aborted by an unexpected error", file=sys.stderr)
        return 3
    finally:
        common.remove_workdir(workdir)

    if args.trace:
        metrics = {
            name: common.Metric(float(out["layers"][name]), unit) for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {name: out["metrics"][name] for name, *_ in END_TO_END}
    common.emit(args.workload, True, out["attempted"], out["failed"], metrics,
                out.get("notes", ()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

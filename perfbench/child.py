"""Child interpreter for the parts of the benchmark that need a fresh process.

    child.py setup [--probe] --workload NAME --seed N   import oemsim and
                                                        build the inputs
    child.py cli [--trace] [--probe] -- ARGV            run oemsim.cli.main

Both are timed from outside by the parent. With --probe the child samples
the speed kernel while it runs (see calibrate.py) and prints the samples as
one JSON line. Under `python -X importtime`, a `setup` child's stderr gives
the import tree; it runs without --probe then, so that the tree is the one a
user gets. `cli` also prints the CLI's exit code, this process's peak RSS
and, with --trace, the per-layer reduction.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True,
                         choices=sorted(workloads.WORKLOADS))
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--probe", action="store_true")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace", action="store_true")
    p_cli.add_argument("--probe", action="store_true")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "setup" and not args.probe:
        # set-up only names the scratch directory; nothing is written there
        workloads.WORKLOADS[args.workload].build(ROOT, args.seed, ROOT)
        return 0

    # the kernel needs numpy, so numpy is imported before the probe starts;
    # the parent times the whole process either way
    from calibrate import SpeedProbe
    if args.mode == "setup":
        with SpeedProbe("grid", during=True) as probe:
            workloads.WORKLOADS[args.workload].build(ROOT, args.seed, ROOT)
        print(json.dumps({"speed_samples": probe.samples,
                          "stolen_s": probe.stolen_s}))
        return 0

    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    report: dict = {}
    kind = workloads.CliDense.speed_kernel
    with SpeedProbe(kind, during=args.probe) as probe:
        workloads.import_oemsim(ROOT)
        from oemsim import cli
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                code = cli.main(cli_argv)
            finally:
                tracer.uninstall()
            report["layers"], report["counters"] = tracer.reduce()
        else:
            code = cli.main(cli_argv)
    report["speed_samples"] = probe.samples
    report["stolen_s"] = probe.stolen_s
    report["exit_code"] = code
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

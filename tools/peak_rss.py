"""Name the checks that raise a run's peak resident set size.

    python tools/peak_rss.py SCENARIO... [--threads N] [--passes P]
                             [--override KEY=VALUE]...

Runs the scenarios (builtin names or scenario files, each with the
overrides) P times in this one process, as `degenlab run` does, and prints
a line for each check during which the process's peak RSS (ru_maxrss) rose:
the peak before and after the check and the RSS right after it, in MB.  A
last line gives the peak of the whole process.  With more than one check
thread the checks overlap, and a rise is charged to every check that was
running when it happened.  The reports go to a temporary directory.  It
imports the installed degenlab, or the checkout's with PYTHONPATH=src.
"""

import argparse
import os
import resource
import sys
import tempfile
import threading

from degenlab import cli, scenarios

MB = 1e6
# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * MAXRSS_BYTES


def current_rss():
    """Resident bytes now, from /proc/self/statm; None where that is missing."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


def watched(name, check, run_label, lock):
    def run(ctx, seed, **params):
        before = peak_rss()
        try:
            return check(ctx, seed, **params)
        finally:
            after = peak_rss()
            if after > before:
                now = current_rss()
                now = "?" if now is None else f"{now / MB:.1f}"
                with lock:
                    print(f"{run_label[0]} {name}: peak {before / MB:.1f} -> {after / MB:.1f} MB,"
                          f" current {now} MB", flush=True)

    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", nargs="+", help="builtin name or scenario JSON")
    parser.add_argument("--threads", type=int, default=1, help="check threads, as degenlab run")
    parser.add_argument("--passes", type=int, default=1, help="times to run every scenario")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path scenario override, applied to every scenario")
    args = parser.parse_args(argv)

    run_label = [""]
    lock = threading.Lock()
    for name, check in list(scenarios.CHECKS.items()):
        scenarios.CHECKS[name] = watched(name, check, run_label, lock)
    with tempfile.TemporaryDirectory() as out:
        for p in range(1, args.passes + 1):
            for i, scenario in enumerate(args.scenario):
                run_label[0] = f"pass {p} {os.path.basename(scenario)}"
                cli.run(scenario, out_dir=os.path.join(out, str(i)), threads=args.threads,
                        overrides=args.override)
    print(f"peak {peak_rss() / MB:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

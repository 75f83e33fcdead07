"""Does the speed probe's time depend on what the program is doing?

    python3 perfbench/probecheck.py [--seconds 90]

Calls a slice of every workload in turn, round and round, in one process,
so that all four see the same machine.  The timer probe of worker.measure
runs inside the calls, and one more probe runs after each call.  If the
program's own state (its heap, the caches it fills) slowed the probe, the
probe medians would differ from workload to workload, and inside calls from
between them.  They should agree to a few percent.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import statistics
import sys
import time

import worker

SLICES = {"wide": slice(0, 1), "hilbert": slice(1, 3), "cli-sweep": slice(-60, None), "mutants": slice(-25, None)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=90.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    lp = worker.import_program()
    import workloads

    workdir = worker.ROOT / "perfbench" / "_work" / "probecheck"
    try:
        groups = {name: workloads.build(name, lp, args.seed, workdir)[part] for name, part in SLICES.items()}
        inside, between = interleave(groups, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in groups:
        print(
            f"{name:10s} inside calls {statistics.median(inside[name]) * 1e3:.3f} ms (n={len(inside[name])})"
            f"  between calls {statistics.median(between[name]) * 1e3:.3f} ms (n={len(between[name])})"
        )
    return 0


def interleave(groups, seconds):
    """Per group, the probe times inside its calls and after them."""
    table = worker.probe_table()
    inside = {name: [] for name in groups}
    between = {name: [] for name in groups}
    running = [None]

    def on_alarm(signum, frame):
        if running[0] is not None:
            inside[running[0]].append(worker.probe(table)[1])

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, worker.PROBE_EVERY_S, worker.PROBE_EVERY_S)
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            for name, items in groups.items():
                for item in items:
                    running[0] = name
                    item.call()
                    running[0] = None
                    between[name].append(worker.probe(table)[1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return inside, between


if __name__ == "__main__":
    sys.exit(main())

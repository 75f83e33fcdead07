"""One benchmark process: import lpdeform, build a workload's inputs, run it.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
                                [--seconds S --trace 0|1 | --setup-only]
    python3 perfbench/worker.py --reference

Prints READY once the inputs exist; everything before that line is set-up.
Then it calls the workload's items in turn, round and round, while the next
call still fits in S seconds (every item is called at least once), checks
each output outside the timed region, and prints one JSON line with the raw
timings.  Meanwhile a timer signal runs the speed probe (see `probe`) every
PROBE_EVERY_S, inside calls too.
With --trace 1 it runs one plain pass, to warm up, and then one traced pass,
and reports the per-layer metrics of the traced pass.

--reference prints READY as soon as this file's imports are done, without
lpdeform: the same interpreter start, to which run.py compares set-up.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 0.05  # timer period of the speed probe
PROBE_WINDOW_S = 0.5  # probes this close to a call estimate its speed


def import_program():
    """lpdeform from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lpdeform

    if Path(lpdeform.__file__).resolve().parent != src / "lpdeform":
        raise ImportError(f"lpdeform came from {lpdeform.__file__}, not {src}")
    return lpdeform


def probe_table():
    """The lookup table the probe walks: ~4 MB, larger than the caches
    closest to the core, like the program's big dicts."""
    return {(i, i * 7 % 13): i for i in range(1 << 15)}


def probe(table):
    """Time a fixed piece of work shaped like the program's inner loops
    (dict updates keyed by tuples, Fraction sums, lookups that miss the
    nearest caches); about 1.2 ms.

    The machine's speed swings by a quarter over seconds, as neighbours come
    and go.  The probe never changes, so its time measures that speed, and a
    call's time divided by the probe times around it swings much less.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(300):
            key = (i % 31, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(1, 1 + i % 5)
        j = 1
        for _ in range(1500):
            j = (j * 40503 + 1) & 32767
            acc[0] = table[(j, j * 7 % 13)]
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_call(item):
    """(start, seconds, output); an exception is returned as the output."""
    start = time.perf_counter()
    try:
        out = item.call()
    except Exception as exc:  # a call that raised is a failed operation
        out = exc
    return start, time.perf_counter() - start, out


def problems(item, out):
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return item.check(out)
    except Exception as exc:  # malformed output
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def run_pass(items):
    """Call every item once; return the outputs."""
    return [timed_call(item)[2] for item in items]


def local_speed(probes, starts, start, end):
    """Median probe time within PROBE_WINDOW_S of [start, end]; `starts`
    are the start times of `probes`, in order."""
    lo = bisect.bisect_left(starts, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
    return statistics.median(p[1] for p in probes[lo:hi])


def resident_bytes():
    """This process's resident set size now (Linux; 0 elsewhere)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


def measure(items, seconds, on_output):
    """Round-robin calls for `seconds`, probing the machine's speed every
    PROBE_EVERY_S from a timer signal, also in the middle of a call.

    Returns (per item a list of [call seconds, local probe seconds], the
    times of the probes that ran inside calls, the times of those that ran
    between calls, peak RSS in MB).  A call's seconds exclude the probes
    that ran inside it.  The peak leaves out the probe's table: its
    resident size, measured as it is built, is taken off the peak reached
    after it was built.
    """
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    resident = resident_bytes()
    table = probe_table()
    table_bytes = resident_bytes() - resident

    probes = []  # (start, seconds)
    timeline = []  # (item index, start, seconds)
    calls = [[] for _ in items]

    def on_alarm(signum, frame):
        probes.append(probe(table))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        begin = time.perf_counter()
        time.sleep(PROBE_WINDOW_S)
        k = 0
        while True:
            i = k % len(items)
            left = seconds - PROBE_WINDOW_S - (time.perf_counter() - begin)
            if k >= len(items) and calls[i][-1][0] > left:
                break
            start, took, out = timed_call(items[i])
            calls[i].append([took, None])
            timeline.append((i, start, took))
            on_output(i, out)
            k += 1
        time.sleep(PROBE_WINDOW_S)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)

    starts = [p[0] for p in probes]
    in_call = [False] * len(probes)
    seen = [0] * len(items)
    for i, start, took in timeline:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, start + took)
        in_call[lo:hi] = [True] * (hi - lo)
        inside = sum(p[1] for p in probes[lo:hi])
        calls[i][seen[i]] = [took - inside, local_speed(probes, starts, start, start + took)]
        seen[i] += 1
    peak = max(peak_before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - table_bytes)
    inside = [p[1] for p, flag in zip(probes, in_call) if flag]
    between = [p[1] for p, flag in zip(probes, in_call) if not flag]
    return calls, inside, between, peak / 2**20


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.reference:
        print("READY", flush=True)
        return 0

    lp = import_program()
    import workloads

    items = workloads.build(args.workload, lp, args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    failures = []
    attempted = 0
    verdicts = {}

    def on_output(i, out):
        nonlocal attempted
        attempted += 1
        found = problems(items[i], out)
        if found:
            failures.append(f"{items[i].label}: {'; '.join(found)}")
        if args.workload == "mutants" and i not in verdicts:
            verdicts[i] = not isinstance(out, Exception) and workloads.caught(out)

    result = {"items": [item.label for item in items]}
    if args.trace:
        from spans import Tracer

        for i, out in enumerate(run_pass(items)):
            on_output(i, out)
        tracer = Tracer()
        tracer.install()
        try:
            outputs = run_pass(items)
        finally:
            tracer.uninstall()
        for i, out in enumerate(outputs):
            on_output(i, out)
        result["layers"] = tracer.metrics()
        for line in tracer.edge_report()[:20]:
            print(f"# span {line}", file=sys.stderr)
    else:
        measured = measure(items, args.seconds, on_output)
        result["calls"], result["probes_in_calls"], result["probes_between"], result["peak_rss_mb"] = measured

    result.update(
        attempted=attempted,
        failures=failures,
        caught=sum(verdicts.values()) if verdicts else None,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

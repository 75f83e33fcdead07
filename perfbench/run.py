"""lpdeform benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide|cli-sweep|hilbert|mutants \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded Python process (perfbench/worker.py) as one closed-loop
caller: the next call starts when the previous one returns.  The program
is imported from the checkout's src/ and sees only the generated inputs.

set-up    SETUP_SAMPLES processes each start the interpreter, import
          lpdeform and generate the workload's inputs, and each runs between
          two reference starts (worker.py --reference: the same interpreter
          start without lpdeform).  A set-up's time from spawn to READY is
          divided by the mean of the two reference starts around it, and
          setup_s is the median of these ratios times REFERENCE_START_S.
measure   one more process calls the items round and round while the next
          call fits in S seconds, with the speed probe (worker.probe) run
          from a timer, inside calls too.  A call's time is scaled by
          PROBE_REF_S over the median probe time around it: the host's
          speed swings by a quarter over seconds, and the scaled times do
          not.  An item's latency is the median of its scaled repetitions;
          wall_s, the time of one pass, is their sum; call_p50_s /
          call_p90_s are percentiles over the items.  The unscaled figures
          and the probe medians inside and between calls are printed too.
trace 1   no set-up samples; one plain pass, then one pass under the
          per-layer tracer (perfbench/spans.py); prints the per-layer
          metrics instead.

Every output is checked; the last line is the JSON result, and the lines
before it say what ran, on what, and which operations failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide", "cli-sweep", "hilbert", "mutants")
SETUP_SAMPLES = 9
PROBE_REF_S = 0.002  # seconds the probe takes on this machine, usually
REFERENCE_START_S = 0.085  # seconds a reference start takes on this machine, usually
WORKER_TIMEOUT_S = 170


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_or_none(values):
    return statistics.median(values) if values else None


def environment(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


def worker_cmd(*extra):
    return [sys.executable, str(HERE / "worker.py"), *extra]


def workload_args(args, workdir):
    return ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]


def run_worker(cmd, deadline, want_result=True):
    """Start a worker; return (seconds from spawn to its READY line, its
    JSON result or None).  It is killed at the deadline."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        if line.strip() != "READY":
            raise SystemExit("worker failed during set-up")
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SystemExit("worker overran its time limit")
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    return ready, (json.loads(out.strip().splitlines()[-1]) if want_result else None)


def setup_times(args, workroot, deadline):
    """SETUP_SAMPLES set-ups, each between two reference starts.

    Returns (set-up times, reference start times); set-up k ran between
    reference starts k and k + 1."""
    reference = worker_cmd("--reference")
    refs = [run_worker(reference, deadline, False)[0]]
    setups = []
    for k in range(SETUP_SAMPLES):
        setup = worker_cmd(*workload_args(args, workroot / str(k)), "--setup-only")
        setups.append(run_worker(setup, deadline, False)[0])
        refs.append(run_worker(reference, deadline, False)[0])
    return setups, refs


def end_to_end(result, setups, refs):
    """The --trace 0 metrics, and the same timings unscaled, for the log.

    A set-up is scaled by the mean of the two reference starts around it."""
    scaled = [statistics.median(t * PROBE_REF_S / p for t, p in reps) for reps in result["calls"]]
    raw = [min(t for t, _ in reps) for reps in result["calls"]]
    ratios = [s * 2 / (a + b) for s, a, b in zip(setups, refs, refs[1:])]
    metrics = {
        "setup_s": (statistics.median(ratios) * REFERENCE_START_S, "s"),
        "wall_s": (sum(scaled), "s"),
        "call_p50_s": (percentile(scaled, 0.5), "s"),
        "call_p90_s": (percentile(scaled, 0.9), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(setups),
        "reference_start_s": statistics.median(refs),
        "wall_s": sum(raw),
        "call_p50_s": percentile(raw, 0.5),
        "call_p90_s": percentile(raw, 0.9),
        "probe_median_in_calls_s": median_or_none(result["probes_in_calls"]),
        "probe_median_between_calls_s": median_or_none(result["probes_between"]),
        "probes_in_calls": len(result["probes_in_calls"]),
        "probes_between_calls": len(result["probes_between"]),
    }
    return metrics, unscaled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lpdeform" / "__init__.py").is_file():
        print(f"perfbench: no lpdeform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args)
    print("# env " + json.dumps(env))

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workroot = HERE / "_work" / f"run-{os.getpid()}"
    try:
        if not args.trace:
            setups, refs = setup_times(args, workroot, deadline)
        cmd = worker_cmd(*workload_args(args, workroot / "run"), "--seconds", str(args.seconds), "--trace", str(args.trace))
        _, result = run_worker(cmd, deadline)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    attempted, failures = result["attempted"], result["failures"]
    for f in failures[:20]:
        print(f"# FAILED {f}")
    print(f"# calls {attempted} over {len(result['items'])} items, failed {len(failures)}, fail_frac {len(failures) / attempted:.4f}")
    if args.workload == "mutants":
        print(f"# mutants_caught_frac {result['caught']}/{len(result['items'])}")

    if args.trace:
        metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in result["layers"].items()}
    else:
        metrics, unscaled = end_to_end(result, setups, refs)
        reps = [len(r) for r in result["calls"]]
        print(f"# repetitions per item: min {min(reps)}, max {max(reps)}")
        print("# unscaled " + json.dumps(unscaled))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

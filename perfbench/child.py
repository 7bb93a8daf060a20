"""One measured process: import dehnfill cold, run a workload, report JSON.

Started by run.py, one at a time, with thread pools pinned to one thread.
The last line of stdout is a JSON object.  Modes:

  setup  import dehnfill and dehnfill.cli and finish op 0 cold, then stop
  timed  setup, warm-up, then ops for --seconds of wall time (finishing
         the workload's input block under way at the deadline)
  fixed  setup, warm-up, then exactly --ops ops (stopping early only at
         --seconds); with --trace the ops run under the span tracer
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import stats
from workloads import WORKLOADS, FormatFailure, plain_lib

#: The probe loop's time on the nominal host that normalized times refer to.
PROBE_NOMINAL_S = 1e-3
#: Wall time between probes in the measured phase.
PROBE_EVERY_S = 0.1


def _threads() -> int:
    """OS threads of this process (1 when every pool is pinned)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def _cpu() -> float:
    """CPU seconds of this process, all its threads, and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _probe() -> float:
    """Host speed: PROBE_NOMINAL_S over the faster of two runs of a fixed
    pure-Python loop, in process CPU time (1.0 where the loop takes 1 ms)."""
    best = math.inf
    for _ in range(2):
        start = time.process_time()
        total, table = 0.0, {}
        for i in range(6000):
            x = math.sqrt(i + 1.0) * 1.0001
            table[i & 63] = x
            total += x / (1.0 + x * x)
        best = min(best, time.process_time() - start)
    return PROBE_NOMINAL_S / best


def _run_op(workload, lib, i, inp, tmpdir, tracer=None):
    """(wall seconds, CPU seconds, result, failure) of one op; the oracle runs
    after the timing."""
    start, cpu_start = time.perf_counter(), _cpu()
    try:
        if tracer is None:
            result = workload.op(lib, inp, tmpdir)
        else:
            result = tracer.op(i, workload.op, lib, inp, tmpdir)
        failure = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, failure = None, f"raised {type(exc).__name__}: {exc}"
    cpu = _cpu() - cpu_start
    elapsed = time.perf_counter() - start
    if failure is None:
        try:
            failure = workload.check(i, inp, result)
        except Exception as exc:
            failure = f"oracle raised {type(exc).__name__}: {exc}"
    return elapsed, cpu, result, failure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    stream = workload.inputs(args.seed)
    first = next(stream)
    tmpdir = tempfile.mkdtemp(dir=args.workdir)
    report: dict = {"failures": [], "failed": 0, "wrong": 0, "nonstrict_json": 0}

    def fail(i, reason):
        # a FormatFailure (right values, non-strict JSON token) is the known
        # defect counted in nonstrict_json; any other reason is a failed op,
        # counted in failed for the timed phase and in wrong for every phase
        timed = i > workload.warmup
        if isinstance(reason, FormatFailure):
            report["nonstrict_json"] += timed
        else:
            report["failed"] += timed
            report["wrong"] += 1
        # keep the first few reasons; the counts are what the metrics use
        if len(report["failures"]) < 20:
            report["failures"].append([i, reason])
    try:
        speed = _probe()
        start = time.perf_counter()
        import dehnfill
        import dehnfill.cli
        lib = plain_lib(dehnfill)
        _, _, _, failure = _run_op(workload, lib, 0, first, tmpdir)
        report["setup_raw_s"] = time.perf_counter() - start
        # scaled by the mean host speed just before and just after, as ops
        # are: one probe alone missed drift during the set-up
        report["setup_speeds"] = [speed, _probe()]
        report["setup_s"] = report["setup_raw_s"] * 0.5 * sum(report["setup_speeds"])
        report["module"] = dehnfill.__file__
        report["threads"] = _threads()
        if failure:
            fail(0, failure)
        if args.mode == "setup":
            return _emit(report)

        for i in range(1, workload.warmup + 1):
            _, _, _, failure = _run_op(workload, lib, i, next(stream), tmpdir)
            if failure:
                fail(i, failure)

        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            lib = tracer.install(dehnfill)
        # an op's time is its CPU time, which leaves out the moments the host
        # deschedules this process, scaled by the mean host speed of the
        # probes just before and just after it, so host-wide slowdowns
        # cancel; wall times are kept as raw_*
        raw, cpu, window, kept, speeds = [], [], [], [], []
        threads = report["threads"]
        i = workload.warmup + 1
        phase_start = time.perf_counter()
        deadline = phase_start + args.seconds
        next_probe = phase_start
        for inp in stream:
            if len(raw) % workload.block == 0 and time.perf_counter() >= deadline:
                break
            if args.mode == "fixed" and len(raw) >= args.ops:
                break
            if time.perf_counter() >= next_probe:
                speeds.append(_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            elapsed, cpu_s, result, failure = _run_op(workload, lib, i, inp, tmpdir, tracer)
            threads = max(threads, _threads())
            raw.append(elapsed)
            cpu.append(cpu_s)
            window.append(len(speeds) - 1)
            if failure is None and workload.keep(i, inp, result):
                kept.append((i, inp, result))
            if failure:
                fail(i, failure)
            i += 1
        report["wall_s"] = time.perf_counter() - phase_start
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speeds.append(_probe())
        latencies = [t * 0.5 * (speeds[k] + speeds[k + 1]) for t, k in zip(cpu, window)]
        if tracer is not None:
            tracer.unpatch()

        for j, inp, result in kept:
            failure = workload.post_check(inp, result)
            if failure:
                fail(j, f"post-check: {failure}")
        report["post_checked"] = len(kept)

        ordered = sorted(latencies)
        tail_value, tail_p, tail_beyond = stats.tail(ordered)
        report.update(
            speed_quartiles=stats.quartiles(speeds),
            raw_busy_s=sum(raw),
            raw_p50_ms=stats.percentile(sorted(raw), 50.0) * 1e3,
            cpu_share=sum(cpu) / sum(raw),
            attempted=len(latencies),
            busy_s=sum(latencies),
            p50_ms=stats.percentile(ordered, 50.0) * 1e3,
            tail_ms=tail_value * 1e3,
            tail_percentile=tail_p,
            tail_beyond=tail_beyond,
            threads=threads,
            versions={
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__,
            },
        )
        if tracer is not None:
            report["layers"] = tracer.summary(dehnfill.envelope.f, dehnfill.envelope.ftilde)
            tracer.write(os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}.csv"))
        return _emit(report)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _emit(report: dict) -> int:
    sys.stdout.write(json.dumps(report, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

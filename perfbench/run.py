"""dehnfill benchmark: one closed-loop caller, one workload per invocation.

    python3 perfbench/run.py --workload certify_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement is a fresh child
interpreter (perfbench/child.py) importing dehnfill from ``src/``, started
only after the previous one has ended, with BLAS/OpenMP pools pinned to one
thread.  The load is a closed loop with one caller: each op starts when the
previous one (and its oracle check) has ended.

With ``--trace 0`` the end-to-end metrics come from one timed child plus
four set-up-only children; with ``--trace 1`` the per-layer metrics come
from an ``-X importtime`` child and a fixed-length op sequence run once
untraced and once traced.  Every metric is printed as ``name value unit``;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, raw times included, go to
``.perfbench/`` in the checkout.

End-to-end op times are the op's CPU time (all threads of the child and
any children it reaps), host-normalized: on a shared virtual host, wall
time also counts the moments the host deschedules the process (clustered
pauses of several ms that set the p99.9 of short ops), and the host's
speed drifts by tens of percent from minute to minute.  So the child times
a fixed pure-Python loop every 0.1 s and scales each op's CPU time by the
mean host speed of the probes around it (speed 1.0 = the loop takes 1 ms
of CPU).  A run whose CPU time covers less than MIN_CPU_SHARE of its ops'
wall time is reported incorrect, since work then escaped the clock.
``setup_s`` is wall time, scaled by the mean of probes taken just before
the import and just after op 0.
Raw wall times are kept in the results file.  Throughput is ops per second
of op time, so the oracle checks between ops do not count.

An op fails if it raises or its oracle finds a wrong value or a wrong exit
code; any failed op makes the results incorrect and counts in ``failed``.
An op whose values are right but whose JSON holds a non-strict token
(certificate_to_json writes an unfilled cusp as ``Infinity``) is the known
defect ``nonstrict_json``: it is not counted in ``failed``, whose count
would then grow with the ops a run gets through, but it is not OK either.
ok_ratio is the share of ops that neither failed nor emitted non-strict
JSON, fail_ratio = 1 - ok_ratio is printed beside it, and the defect's own
share is printed as nonstrict_json_ratio and reported as the per-layer
metric certificates.nonstrict_json_ratio.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fresh interpreters timed for setup_s: the timed child plus these.
SETUP_CHILDREN = 4
#: Time allowed to a child beyond its measured phase.
CHILD_SLACK_S = 60.0
#: Least share of the measured ops' wall time that must be CPU time of the
#: child (all threads and reaped children); below it, work went to I/O
#: waits or to processes the clock does not see.
MIN_CPU_SHARE = 0.6

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _lock():
    """Hold .perfbench/lock for the whole run, so that no other run of this
    benchmark in the checkout measures at the same time."""
    fh = open(WORKDIR / "lock", "w", encoding="ascii")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise RuntimeError(f"another run holds {WORKDIR / 'lock'}; runs measure one at a time")
    return fh


def _spawn(cmd: list[str], timeout: float, capture_stderr: bool = False):
    """Run one child to completion (children never overlap)."""
    return subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, timeout=timeout, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if capture_stderr else None,
        check=False,
    )


def _child(workload: str, seed: int, mode: str, seconds: float, ops: int = 0,
           trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--ops", str(ops), "--workdir", str(WORKDIR)]
    if trace:
        cmd.append("--trace")
    proc = _spawn(cmd, timeout=seconds + CHILD_SLACK_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited {proc.returncode}")
    report = json.loads(lines[-1])
    if Path(report["module"]).resolve() != (SRC / "dehnfill" / "__init__.py").resolve():
        raise RuntimeError(f"child imported dehnfill from {report['module']}, not {SRC}")
    return report


def _import_breakdown() -> dict:
    proc = _spawn([sys.executable, "-X", "importtime", "-c", "import dehnfill, dehnfill.cli"],
                  timeout=CHILD_SLACK_S, capture_stderr=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return stats.parse_importtime(proc.stderr)


def _ok(report: dict) -> bool:
    """No wrong result, one thread, and (after a measured phase) most of the
    op time spent on this process's CPU, so no work escaped the clock."""
    return (report["wrong"] == 0 and report["threads"] == 1
            and report.get("cpu_share", 1.0) >= MIN_CPU_SHARE)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    timed = _child(workload, seed, "timed", seconds)
    setups = [timed["setup_s"]]
    correct = _ok(timed)
    for _ in range(SETUP_CHILDREN):
        report = _child(workload, seed, "setup", seconds)
        setups.append(report["setup_s"])
        correct = correct and _ok(report)
    n = timed["attempted"]
    nonstrict = timed["nonstrict_json"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": n / timed["busy_s"],
        "latency_p50_ms": timed["p50_ms"],
        "latency_tail_ms": timed["tail_ms"],
        "ok_ratio": (n - timed["failed"] - nonstrict) / n,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "latency_tail_ms": f"p{timed['tail_percentile']:g} of {n} ops, "
                           f"{timed['tail_beyond']} beyond",
        "ok_ratio": "1 - (failed + non-strict JSON) / attempted",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "fail_ratio": f"{timed['failed']} of {n} ops failed, {nonstrict} more emitted "
                      "non-strict JSON with right values",
        "nonstrict_json_ratio": f"{nonstrict} of {n} ops: known defect, certificate_to_json "
                                "writes an unfilled cusp as Infinity",
    }
    return {
        "correct": correct,
        "attempted": n,
        "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        # fail_ratio is 0 when every op is OK, so the metric set carries ok_ratio
        "printed": {"fail_ratio": {"value": (timed["failed"] + nonstrict) / n, "unit": "ratio"},
                    "nonstrict_json_ratio": {"value": nonstrict / n, "unit": "ratio"}},
        "notes": notes,
        "detail": {"timed": timed, "setup_samples_s": setups},
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[workload]
    imports = _import_breakdown()
    plain = _child(workload, seed, "fixed", seconds, ops=spec.trace_ops)
    traced = _child(workload, seed, "fixed", 2.0 * seconds, ops=plain["attempted"],
                    trace=True)
    layers = traced["layers"]
    correct = _ok(plain) and _ok(traced) and traced["attempted"] == plain["attempted"]
    # the layers' self times and the unattributed time partition the op time
    parts = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.unattributed_s"]
    correct = correct and abs(parts - layers["trace.op_s"]) <= 1e-9 * (1 + layers["trace.op_s"])
    metrics = dict(layers)
    metrics.update({
        "certificates.nonstrict_json_ratio": traced["nonstrict_json"] / traced["attempted"],
        "import.numpy_s": imports.get("numpy", 0.0),
        "import.scipy_s": imports.get("scipy", 0.0),
        "import.dehnfill_self_s": imports.get("dehnfill", 0.0),
        "trace.overhead_ratio": traced["busy_s"] / plain["busy_s"],
    })
    inputs = list(itertools.islice(spec.inputs(seed), spec.property_inputs))
    return {
        "correct": correct,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()},
        "notes": {"ops": f"{traced['attempted']} ops after {spec.warmup} warm-up ops"},
        "detail": {"untraced": plain, "traced": traced, "input_properties":
                   spec.properties(inputs)},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dehnfill" / "__init__.py").is_file():
        print(f"no dehnfill sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        with _lock():
            if args.trace:
                result = per_layer(args.workload, args.seed, args.seconds)
            else:
                result = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    for name, metric in {**result["metrics"], **result.get("printed", {})}.items():
        note = result["notes"].get(name, "")
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

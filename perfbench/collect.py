"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/collect.py --workloads certify_stream,weitz_scan --seeds 1-10 [--trace 1]

Runs the command in BENCHMARK.json once per (workload, seed), one run at a
time, from the root of the checkout, and prints for every metric the
median, the quartiles and the spread (Q3 - Q1) / median (``stats.spread``)
next to the metric's bound.  Each run's JSON line is appended to
``.perfbench/collect.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    log = ROOT / ".perfbench" / "collect.jsonl"
    log.parent.mkdir(exist_ok=True)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            summary[workload][name] = row = stats.spread(vals)
            bound = bounds.get(name)
            flag = "" if bound is None or row["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:15s} {name:45s} median {row['median']:12.6g}  q1 {row['q1']:12.6g}"
                  f"  q3 {row['q3']:12.6g}  spread {row['spread']:7.4f}  bound {bound}{flag}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

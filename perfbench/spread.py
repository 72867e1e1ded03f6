"""Run the benchmark over several seeds and summarize the run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

For each workload and metric, prints the median of the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
bound of each end-to-end metric in ``BENCHMARK.json`` is printed beside
it.  ``--out`` writes the same summary, with every run's values, as
JSON.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its gates:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seed_list(args.seeds):
            result = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}", file=sys.stderr, flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
            bound = bounds.get(name)
            print(f"{workload:15s} {name:40s} median {metrics[name]['median']:12.5g} {first['unit']:6s}"
                  f" spread {metrics[name]['spread']:.3f}" + (f" (bound {bound})" if bound else ""))
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

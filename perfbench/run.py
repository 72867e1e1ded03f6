"""Benchmark runner for endoscope.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import plus seeded input generation) is repeated
``SETUP_REPEATS`` times and its median reported.  Then whole passes over
the workload's jobs run until ``--seconds`` would be exceeded; every job
starts with cold caches.

Times are reported at a reference host speed: each timing is scaled by
``REFERENCE_S`` over the median time of a fixed stdlib-only Fraction
loop run before, after and every ``GAUGE_PERIOD_S`` during it.  On a
shared host whose speed drifts by tens of percent over minutes, this
keeps runs comparable; on a host where the loop takes ``REFERENCE_S``
the figures are plain wall seconds.  Unscaled wall seconds are logged
on standard error.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(medians over passes).  ``--trace 1`` first runs the tracer self-test,
then alternates untraced and traced passes and reports the per-layer
metrics (medians over traced passes, in unscaled seconds) plus the
tracing overhead.  The last line of standard output is the JSON result.
Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
CALIBRATION_STEPS = 4000
REFERENCE_S = 0.02
GAUGE_PERIOD_S = 0.5

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def import_package():
    """Import endoscope from scratch, so every set-up pays for the import."""
    for name in [k for k in sys.modules if k == "endoscope" or k.startswith("endoscope.")]:
        del sys.modules[name]
    ep = importlib.import_module("endoscope")
    importlib.import_module("endoscope.cli")
    return ep


def calibrate() -> float:
    """Seconds for a fixed stdlib-only Fraction loop: a gauge of host speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    return time.perf_counter() - start


class Stopwatch:
    """Times a block in wall seconds and at reference host speed.

    The calibration loop runs before and after the block and, from a
    SIGALRM handler, every GAUGE_PERIOD_S inside it, so a drift of host
    speed during a long job is seen.  Time spent in the loop is left out
    of the block's time and off the tracer's span clock.  ``reference``
    is the block's seconds times REFERENCE_S over the median loop time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def _tick(self, signum, frame):
        loop = calibrate()
        self.samples.append(loop)
        self.paused += loop
        if self.tracer is not None:
            self.tracer.lost += loop

    def __enter__(self):
        self.samples = [calibrate()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self.start - self.paused
        self.samples.append(calibrate())
        self.reference = self.wall * REFERENCE_S / statistics.median(self.samples)
        return False


def set_up(workload, seed):
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with Stopwatch() as watch:
            ep = import_package()
            jobs = workload.setup(ep, seed, str(OUT))
        raw.append(watch.wall)
        scaled.append(watch.reference)
    log(f"{workload.name}: set-up {statistics.median(raw):.4f} s wall, {len(jobs)} jobs")
    return ep, jobs, statistics.median(scaled)


def run_job(ep, job, tracer=None, index=0):
    """Run one job cold; return (passed its gate, wall seconds, reference seconds)."""
    ep.homs.clear_caches()
    gc.collect()
    with Stopwatch(tracer) as watch:
        if tracer is not None:
            tracer.begin_job(index, ep.homs)
        try:
            passed = bool(job.run())
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            passed = False
        if tracer is not None:
            tracer.end_job(ep.homs)
    if not passed:
        log(f"job {job.name} FAILED its gate")
    return passed, watch.wall, watch.reference


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, passed):
        self.attempted += 1
        self.failed += not passed


def run_pass(ep, jobs, tally, tracer=None):
    """One pass over the jobs; returns {job name: (wall s, reference s)} and
    the pass's real time."""
    start = time.perf_counter()
    times = {}
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            passed, *times[job.name] = run_job(ep, job, tracer, i)
            tally.add(passed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, time.perf_counter() - start


def total(times, column):
    return sum(t[column] for t in times.values())


def time_left(deadline, estimate):
    return time.perf_counter() + estimate <= deadline


def untraced(ep, jobs, workload, seconds, tally):
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        times, real = run_pass(ep, jobs, tally)
        passes.append(times)
        log(f"pass {len(passes)}: {total(times, 0):.3f} s wall, {total(times, 1):.3f} s at reference speed")
        if not time_left(deadline, real):
            break
    return {
        "wall_s": statistics.median(total(t, 1) for t in passes),
        "small_s": statistics.median(t[workload.small][1] for t in passes),
    }


def selftest(ep) -> bool:
    """Tracing must not change a report, and its hom_basis miss count must
    equal the cache_info() delta."""
    argv = ["endosoc", "--family", "preinj", "--range", "1..4"]
    ep.homs.clear_caches()
    plain = run_cli(ep, argv)
    ep.homs.clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job(0, ep.homs)
        traced = run_cli(ep, argv)
        misses, distinct = tracer.end_job(ep.homs)
    finally:
        tracer.uninstall()
    for _, report in (plain, traced):
        if report is not None:
            report.pop("timing_ms", None)
    calls = tracer.metrics()["homs.hom_basis.calls"]
    hits = tracer.counts["homs.hom_basis.hits"]
    checks = {
        "reports identical": plain[0] == 0 and plain == traced,
        "miss count": misses == distinct > 0,
        "call count": calls == misses + hits,
        "restored": not hasattr(ep.cli.main, "__wrapped__"),
    }
    for name, ok in checks.items():
        if not ok:
            log(f"self-test failed: {name}")
    return all(checks.values())


def traced_run(ep, jobs, seconds, tally, spans_path):
    deadline = time.perf_counter() + seconds
    plain_times, traced_times, layer = [], [], []
    tracer = None
    while True:
        plain, real = run_pass(ep, jobs, tally)
        tracer = Tracer()
        traced, real_traced = run_pass(ep, jobs, tally, tracer)
        plain_times.append(total(plain, 1))
        traced_times.append(total(traced, 1))
        layer.append(tracer.metrics())
        log(f"pair {len(layer)}: untraced {total(plain, 0):.3f} s, traced {total(traced, 0):.3f} s wall")
        if not time_left(deadline, real + real_traced):
            break
    tracer.write_spans(spans_path)
    metrics = {key: _median([m[key] for m in layer]) for key in layer[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(plain_times) - 1
    return metrics


def _median(values):
    # counts repeat exactly from pass to pass; keep them whole numbers
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "endoscope" / "__init__.py").is_file():
        log(f"no endoscope package under {src}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    ep, jobs, setup_s = set_up(workload, args.seed)
    if Path(ep.__file__).resolve().parent != src / "endoscope":
        log(f"imported endoscope from {ep.__file__}, not from {src}")
        return 2
    tally = Tally()
    if args.trace:
        correct = selftest(ep)
        spans_path = OUT / f"spans-{workload.name}.jsonl.gz"
        metrics = traced_run(ep, jobs, args.seconds, tally, spans_path)
    else:
        correct = True
        metrics = untraced(ep, jobs, workload, args.seconds, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["pass_frac"] = (tally.attempted - tally.failed) / tally.attempted

    result = {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

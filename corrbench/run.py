#!/usr/bin/env python3
"""End-to-end benchmark of corrcolor, run from the root of a source checkout.

    python3 corrbench/run.py --workload nibble-large --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen):
  nibble-large  one bipartite 30-regular instance, k=60, 120 vertices per side,
                colored under 20 nibble seeds by in-process
                `corrcolor nibble --preset relaxed` calls on JSON files
  nibble-batch  48 README-scale instances (100 per side, d=12, k=30), each
                colored in memory by run_nibble with cold cover caches
  lb            40 one-trial run_lb_experiment calls, each on its own
                bipartite 12-regular graph with n=72, k=4 and a node budget
                of 10^6; the first-moment bound is 2.7e-4, so every trial
                must be refuted

Everything runs in one process on one thread. setup_s is the median time to
generate one instance's inputs: nibble-large generates its instance three
times, the others time each of their instances once. The timed body then
runs whole passes over the workload's items for about --seconds; wall_s is
the median item time, and peak_rss_mb the process's high-water memory.

Times are scaled to a reference speed. On the 2-core machine this benchmark
was tuned on, a fixed loop ran up to 30% faster or slower for stretches of
10-20 s, because other tenants share the cores. So a short reference loop
is timed before and after every item and every set-up, and each measured
time is multiplied by REFERENCE_S over the mean reference time around it.
The summary line also prints the unscaled wall_s.

With --trace 0 the last stdout line reports the end-to-end metrics; no
wrapper is installed. With --trace 1 one untraced pass and one traced
set-up and pass run on the same items, and the last line reports per-layer
self times and counters (tracer.py), plus the tracing overhead. Earlier
stdout lines record the environment, each item's result sha256 and the
exact-repeat counts.

Every output is checked (verify.py). An item is one coloring or one lb
trial; it fails if it raises, ends in a non-success status, hits the node
budget or fails a check, and no failing item stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, layer_metrics
from verify import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Typical reference_seconds() on the tuning machine, so scaled times read as
# seconds on that machine at its usual speed.
REFERENCE_S = 0.0025
_REF_INDEX = np.random.default_rng(0).integers(0, 4096, 1 << 17)
_REF_TABLE = {i: i * 7 % 4093 for i in range(4096)}


def reference_seconds() -> float:
    """Best of three timings of a fixed mix of interpreter and numpy work."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(12000):
            acc += _REF_TABLE[i & 4095] ^ i
        np.bincount(_REF_INDEX, minlength=4096).cumsum()
        best = min(best, perf_counter() - t0)
    return best


def import_library():
    """Import corrcolor from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "corrcolor" / "__init__.py").is_file():
        sys.exit(f"corrbench: no corrcolor sources under {src}")
    sys.path.insert(0, str(src))
    import corrcolor

    return corrcolor


def environment(corrcolor, seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "corrcolor").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    get_backend = getattr(corrcolor, "get_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "corrcolor": corrcolor.__version__,
        "backend": get_backend() if get_backend else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
        "seed": seed,
    }


class Run:
    """Timed passes over one workload's items, with checks and failure counts."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.digests: dict[int, str] = {}
        self.items: dict[int, dict] = {}
        self.failures: Counter = Counter()
        self.attempted = 0
        self.correct = True
        self.steps = 0
        self.reference = reference_seconds()
        self.raw: list[float] = []  # unscaled item times

    def scaled(self, seconds: float) -> float:
        """Scale a time measured since the last reference timing, and re-time it."""
        before, self.reference = self.reference, reference_seconds()
        return seconds * REFERENCE_S * 2.0 / (before + self.reference)

    def setup(self, seed: int, tracer=None) -> list[float]:
        """Generate the inputs; returns the scaled seconds each instance took."""
        self.inputs = None  # let the previous set-up's inputs go first
        self.reference = reference_seconds()
        if tracer is None:
            times, self.inputs = self.workload.setup(seed, self.workdir)
        else:
            times, self.inputs = tracer.span(
                "bench", self.workload.setup, seed, self.workdir
            )
        scale = self.scaled(1.0)
        return [t * scale for t in times]

    def item(self, i: int, tracer=None) -> float:
        wl = self.workload
        t0 = perf_counter()
        try:
            if tracer is None:
                result = wl.run(self.inputs, i)
            else:
                result = tracer.span("bench", wl.run, self.inputs, i, tracer)
        except (Exception, SystemExit) as exc:
            self.raw.append(perf_counter() - t0)
            self.fail(i, [type(exc).__name__] * wl.units_per_item, correct=True)
            return self.scaled(self.raw[-1])
        self.raw.append(perf_counter() - t0)
        dt = self.scaled(self.raw[-1])
        try:
            checked = wl.check(self.inputs, i, result)
            if self.digests.setdefault(i, checked.digest) != checked.digest:
                raise CheckFailed(f"item {i} result changed between passes")
        except Exception as exc:  # noqa: BLE001 - a failed check must not stop the run
            self.fail(i, [f"check: {exc}"] * wl.units_per_item, correct=False)
            return dt
        self.attempted += len(checked.statuses)
        for status in checked.statuses:
            if status != "ok":
                self.failures[status] += 1
        self.items[i] = {"item": i, "sha256": checked.digest, **checked.detail}
        if tracer is not None:
            self.steps += checked.steps
        return dt

    def fail(self, i: int, statuses: list[str], correct: bool) -> None:
        self.attempted += len(statuses)
        self.failures.update(statuses)
        self.correct = self.correct and correct
        self.items.setdefault(i, {"item": i, "failed": statuses[0]})

    def passes(self, seconds: float) -> list[float]:
        """Whole passes while the next one is expected to end within `seconds`."""
        times = []
        t_start = perf_counter()
        while True:
            t_pass = perf_counter()
            times += [self.item(i) for i in range(self.workload.items)]
            now = perf_counter()
            if now - t_start + (now - t_pass) > seconds:
                return times


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["nibble-large", "nibble-batch", "lb"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    corrcolor = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    emit({
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(corrcolor, args.seed),
        "parameters": {
            key: value for key, value in vars(type(workload)).items()
            if isinstance(value, int) and not key.startswith("_")
        },
        "trace": args.trace,
    })

    workdir = Path(tempfile.mkdtemp(prefix="corrbench-", dir=ROOT))
    try:
        run = Run(workload, workdir)
        setup_times = []
        for _ in range(workload.setup_reps):
            setup_times += run.setup(args.seed)
        if args.trace:
            untraced = [run.item(i) for i in range(workload.items)]
            tracer = Tracer()
            tracer.install()
            try:
                t0 = perf_counter()
                run.setup(args.seed, tracer)
                traced_setup = perf_counter() - t0
                traced = [run.item(i, tracer) for i in range(workload.items)]
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, run.steps)
            traced_total = traced_setup + sum(run.raw[-workload.items:])
            layers_s = sum(v for k, v in tracer.self_s.items() if k != "bench")
            metrics.update({
                "trace.setup_s": (traced_setup, "s"),
                "trace.wall_s": (statistics.median(traced), "s"),
                "trace.overhead_s": (
                    statistics.median(traced) - statistics.median(untraced), "s"
                ),
                "trace.accounted_share": (layers_s / traced_total, "ratio"),
            })
            emit({"unwrapped": tracer.missing, "counts": {
                name: metrics[name][0] for name in (
                    "nibble.steps", "nibble.step_calls", "nibble.round_attempts",
                    "solver.nodes", "kernels.mask_counts_entries",
                )
            }})
        else:
            times = run.passes(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(times), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            failed = sum(run.failures.values())
            emit({"summary": {
                "wall_s": metrics["wall_s"][0],
                "setup_s": metrics["setup_s"][0],
                "failed_share": failed / max(run.attempted, 1),
                "peak_rss_mb": rss_mb,
                "unscaled_wall_s": statistics.median(run.raw),
                "items_timed": len(times),
                "setups_timed": len(setup_times),
            }})
        emit({"items": [run.items[i] for i in sorted(run.items)],
              "failures": dict(run.failures)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    emit({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

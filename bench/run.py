#!/usr/bin/env python3
"""mfgrow benchmark.

    python3 bench/run.py --workload cifar_train --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout: it imports mfgrow from ./src, never an
installed copy, and exits with code 2 when ./src/mfgrow is missing.
Workloads (see workloads.py): cifar_train, grow_prune.

With --trace 0 it measures the end-to-end metrics for --seconds. With
--trace 1 it runs half of --seconds untraced and half with every public
mfgrow function wrapped (tracer.py), and reports the per-layer metrics
(layers.py). Human-readable lines start with '#'; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Scratch files, a JSON record of the run and the spans of a traced run go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cifar_train", "grow_prune")
MIN_PASSES = 3
# Thread count changes both speed and the rounding of every GEMM, so it is
# fixed, recorded, and never above the CPUs this process may use.
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="mfgrow benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        p.error("--seed must be in [0, 2**63) and --seconds positive")
    return args


def pin_blas_threads() -> tuple[int, int]:
    """Must run before NumPy is imported."""
    cpus = len(os.sched_getaffinity(0))
    threads = min(MAX_BLAS_THREADS, cpus)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads, cpus


def git_rev(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int, cpus: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads, "cpus": cpus, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": git_rev(ROOT),
    }


class OpFailed(Exception):
    """An operation raised, exited nonzero, or failed its output check."""


class Runner:
    """Closed loop with one client: the next operation starts when the
    previous one, and its check, have ended."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []

    def _fail(self, kind: str, exc: BaseException):
        self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        raise OpFailed(kind) from exc

    def op(self, kind: str, fn, check=None):
        self.attempted += 1
        with self.tracer.span("op." + kind):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # counted in fail_ratio; the loop goes on
                self._fail(kind, exc)
            elapsed = time.perf_counter() - t0
        self.pass_ops.append(elapsed)
        self.samples[kind].append(elapsed)
        if check is not None:
            with self.tracer.paused():
                try:
                    check(result)
                except Exception as exc:  # a failed check counts like a failed call
                    self._fail(kind, exc)
        return result

    def setup(self, workload) -> None:
        """Set up once more. A shared machine's CPU speed can change within
        seconds, so set-ups are spread over the run (one after each pass)
        rather than repeated back to back."""
        with self.tracer.span("bench.setup"):
            t0 = time.perf_counter()
            workload.setup()
            self.setup_times.append(time.perf_counter() - t0)

    def check_setup(self, workload) -> None:
        self.attempted += 1
        try:
            workload.check_setup()
        except Exception as exc:  # counted in fail_ratio
            self.failures.append(f"setup: {type(exc).__name__}: {exc}")

    def loop(self, workload, seconds: float, first_pass: int = 0):
        """Run whole passes until ``seconds`` have elapsed (at least
        MIN_PASSES). Returns (pass index mod workload.cycle, operation
        times) for each pass that passed its checks, and the times per
        operation kind."""
        self.samples = defaultdict(list)
        passes = []
        deadline = time.perf_counter() + seconds
        i = first_pass
        while i - first_pass < MIN_PASSES or time.perf_counter() < deadline:
            self.pass_ops = []
            try:
                with self.tracer.span("bench.pass"):
                    workload.run_pass(i, self.op)
                passes.append((i % workload.cycle, self.pass_ops))
            except OpFailed:
                pass
            i += 1
            self.setup(workload)
        return passes, self.samples


def typical_pass_s(passes) -> float:
    """Time of a typical pass: each operation of the pass list at its median
    over the passes that do the same work, summed, then averaged over the
    kinds of pass. One slow call moves it less than it moves the median of
    whole-pass times, and a run that ends mid-cycle weighs each kind alike."""
    kinds = defaultdict(list)
    for kind, ops in passes:
        kinds[kind].append(ops)
    return statistics.fmean(sum(statistics.median(t) for t in zip(*same))
                            for same in kinds.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir: Path):
    import layers
    import mfgrow
    import tracer
    import workloads

    tr = tracer.Tracer()
    runner = Runner(tr)
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
    runner.setup(wl)
    runner.check_setup(wl)

    lines, extra = [], {}
    if not args.trace:
        passes, samples = runner.loop(wl, args.seconds)
        metrics = {
            "setup_s": (statistics.median(runner.setup_times), "s"),
            "wall_s": (typical_pass_s(passes), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra["setup_seconds"] = runner.setup_times
        lines += [f"setup_s: median of {len(runner.setup_times)} set-ups, one after each pass",
                  f"wall_s: summed per-operation medians over {len(passes)} passes"]
        extra["op_seconds"] = {kind: times for kind, times in samples.items()}
        for name, (value, unit, *note) in wl.figures(samples).items():
            lines.append(f"{name} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    else:
        plain, _ = runner.loop(wl, args.seconds / 2)
        shapes = layers.StepShapes()
        tr.install(mfgrow, layers.measure_hooks(shapes))
        tr.enabled = True
        runner.setup(wl)
        traced, _ = runner.loop(wl, args.seconds / 2, first_pass=len(plain))
        tr.enabled = False
        tr.uninstall()
        overhead = typical_pass_s(traced) / typical_pass_s(plain)
        metrics, notes = layers.derive(tracer.Spans(tr), len(traced), shapes, overhead)
        lines += [f"{k}: {v}" for k, v in notes.items()]
        lines.append(f"traced {len(traced)} passes, {len(tr.name_id)} spans; "
                     f"untraced {len(plain)} passes")
        tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return runner, metrics, lines, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, cpus = pin_blas_threads()
    if not (SRC / "mfgrow" / "__init__.py").is_file():
        print(f"error: no mfgrow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mfgrow

    if Path(mfgrow.__file__).resolve().parent != (SRC / "mfgrow").resolve():
        print(f"error: imported mfgrow from {mfgrow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(threads, cpus)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner, metrics, lines, extra = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for line in lines:
        print(f"# {line}")
    print(f"# fail_ratio = {failed}/{runner.attempted}")
    for failure in runner.failures:
        print(f"# failed: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), "env": env, "notes": lines, "failures": runner.failures,
              **result, **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

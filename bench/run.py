"""qfibounds benchmark.

    python3 bench/run.py --workload bounds --seed 1 --seconds 15 --trace 0

Runs one workload (bounds, estimate, optimize-input or verify; see
workloads.py) through ``qfibounds.cli.main`` in this process, checks every
output, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, peak_rss_mb,
primary_per_s, secondary_per_s); with --trace 1 they are the per-layer
ones of layers.py, from a run with timing wrappers installed, and the
spans go to .bench_out/.  The program is imported from src/ next to this
directory; without it the command exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import add, difference

# The program's matrices are at most 64 x 64.  On those, OpenBLAS's second
# thread made a d = env = 8 sweep point 5x slower (110 ms against 22 ms) and,
# while another process held a core, single operations up to 40x slower; so
# BLAS runs one thread, set before numpy loads.  The program sets no limit
# itself, so a change that makes it limit its own BLAS threads reads the same
# here as before.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WARMUP_S = 1.0
# Reported times are scaled to a machine on which SpeedProbe() takes this
# long; on an idle core of the machine the benchmark was written on it
# took about 3 ms.
REFERENCE_PROBE_S = 0.004


def load_program():
    """Import qfibounds.cli from this checkout's src/, and only from there."""
    if not (SRC / "qfibounds" / "cli.py").is_file():
        print(f"error: no qfibounds sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qfibounds.cli

    if not Path(qfibounds.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: qfibounds was imported from {qfibounds.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return qfibounds.cli


class SpeedProbe:
    """A fixed kernel of small eigendecompositions and Python arithmetic.

    On a shared virtual machine the speed of the CPU drifts by a factor of
    2 or more within minutes.  The runner times this kernel between calls;
    every time it reports is scaled by REFERENCE_PROBE_S over the median of
    the run's kernel times, so runs made at different speeds compare.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        a = np.random.default_rng(0).normal(size=(8, 16)).view(complex)
        self.matrix = (a + a.conj().T) / 2

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(75):
            values, vectors = self.np.linalg.eigh(self.matrix)
            (vectors * values) @ vectors.conj().T
            sum(float(v) for v in values)
        return time.perf_counter() - start


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """One `qfi` invocation in this process: (exit code, stdout, stderr, seconds).

    ``cli.main`` is looked up at each call, so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Runner:
    """Runs a workload's operations and checks each distinct one once.

    A repeated operation must print exactly what its checked first run
    printed: the program promises deterministic output.
    """

    def __init__(self, cli, workload, tracer=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.speed = SpeedProbe()
        self.first_output: dict[tuple, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.deltas: dict[str, dict] = {}
        self.out_bytes: dict[str, int] = {}
        self.times: dict[tuple, list[float]] = {}   # (kind, units, argv) -> seconds per call
        self.speed_samples: list[float] = []

    def run_op(self, op, counted: bool = True) -> float:
        before = self.tracer.snapshot() if self.tracer else None
        code, out, err, elapsed = call(self.cli, op.argv)
        if self.tracer:
            add(self.deltas.setdefault(op.kind, {}), difference(self.tracer.snapshot(), before))
        if counted:
            self.attempted += 1
            self.failed += int(code != 0)
            self.out_bytes[op.kind] = self.out_bytes.get(op.kind, 0) + len(out)
        if code != 0:
            print(f"failed: qfi {' '.join(op.argv)}: exit {code}\n{err}", file=sys.stderr)
            return elapsed
        key = tuple(op.argv)
        if key in self.first_output:
            if out != self.first_output[key]:
                self.problems.append(f"qfi {' '.join(op.argv)}: output differs between runs")
        else:
            self.first_output[key] = out
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                self.problems.extend(op.check(out))
        return elapsed

    def round(self) -> float:
        """One pass over the operations, timing the kernel between calls; returns its seconds."""
        total = 0.0
        self.speed_samples.append(self.speed())
        for op in self.workload.ops:
            elapsed = self.run_op(op)
            self.speed_samples.append(self.speed())
            self.times.setdefault((op.kind, op.units, tuple(op.argv)), []).append(elapsed)
            total += elapsed
        return total

    def scale(self) -> float:
        """The factor that takes this run's times to the reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.speed_samples)

    def rate(self, kind: str) -> float:
        """Work units per scaled second of `kind` calls, from each distinct call's median time."""
        units = seconds = 0.0
        for (op_kind, op_units, _), times in self.times.items():
            if op_kind == kind:
                units += op_units
                seconds += statistics.median(times)
        return units / (seconds * self.scale())

    def warm_up(self) -> None:
        """Repeat the first operation, uncounted, until WARMUP_S has passed: a cold process is slower."""
        start = time.perf_counter()
        for _ in range(20):
            self.run_op(self.workload.ops[0], counted=False)
            if time.perf_counter() - start >= WARMUP_S:
                break

    def final_check(self) -> None:
        if self.workload.final_check:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                self.problems.extend(self.workload.final_check())


def timed_rounds(runner: Runner, seconds: float) -> list[float]:
    """Whole rounds, starting new ones until `seconds` have passed and min_rounds are done."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < runner.workload.min_rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round())
    return rounds


def make_workload(name: str, seed: int, smoke: bool = False):
    import workloads

    spec_dir = OUT / f"specs-{name}-{seed}-{os.getpid()}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, spec_dir, smoke), spec_dir


def probe(name: str, seed: int, import_only: bool, runner: Runner) -> float:
    """Run a fresh interpreter for one set-up measurement and read its figure.

    The kernel is timed on both sides of it, into the runner's samples.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--probe", "import" if import_only else "setup",
            "--workload", name, "--seed", str(seed)]
    runner.speed_samples.append(runner.speed())
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    runner.speed_samples.append(runner.speed())
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def probe_main(kind: str, name: str, seed: int) -> int:
    """In the fresh interpreter: import the CLI, then (setup) run the first operation.

    The figure printed is import time plus first-operation time; the
    benchmark's own input generation in between is not counted.
    """
    start = time.perf_counter()
    cli = load_program()
    import_s = time.perf_counter() - start
    if kind == "import":
        print(repr(import_s))
        return 0
    workload, spec_dir = make_workload(name, seed)
    try:
        code, _, err, elapsed = call(cli, workload.ops[0].argv)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    if code != 0:
        print(err, file=sys.stderr)
        return 1
    print(repr(import_s + elapsed))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result document."""
    cli = load_program()
    workload, spec_dir = make_workload(name, seed, smoke)
    try:
        if trace:
            metrics, runner = traced_run(cli, workload, name, seed, seconds, smoke)
        else:
            runner = Runner(cli, workload)
            setups = [0.0] if smoke else [probe(name, seed, False, runner)
                                          for _ in range(SETUP_PROBES)]
            runner.warm_up()
            timed_rounds(runner, seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": statistics.median(setups) * runner.scale(), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
                "primary_per_s": {"value": runner.rate(workload.primary), "unit": "units/s"},
                "secondary_per_s": {"value": runner.rate(workload.secondary), "unit": "units/s"},
            }
        runner.final_check()
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def traced_run(cli, workload, name: str, seed: int, seconds: float, smoke: bool):
    """One untraced round, then traced rounds; returns per-layer metrics."""
    import layers
    from tracing import Tracer

    plain = Runner(cli, workload)
    imports = [0.0] if smoke else [probe(name, seed, True, plain) for _ in range(SETUP_PROBES)]
    plain.warm_up()
    untraced_s = plain.round()

    tracer = Tracer()
    for key in layers.WATCHES:
        tracer.watch(*key)
    runner = Runner(cli, workload, tracer)
    runner.first_output = plain.first_output
    tracer.install()
    try:
        rounds = timed_rounds(runner, seconds)
    finally:
        tracer.uninstall()
    runner.problems = plain.problems + runner.problems
    runner.attempted += plain.attempted
    runner.failed += plain.failed
    units: dict[str, int] = {}
    for (kind, op_units, _), times in runner.times.items():
        units[kind] = units.get(kind, 0) + op_units * len(times)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-{seed}.json")
    metrics = layers.layer_metrics(
        name, runner.deltas, units, runner.out_bytes, len(rounds),
        statistics.median(imports) * plain.scale(),
        100.0 * (statistics.median(rounds) - untraced_s) / untraced_s,
    )
    return metrics, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounds", "estimate", "optimize-input", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe_main(args.probe, args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

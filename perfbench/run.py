"""Benchmark of the array-comprehension compiler, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload solve-native --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice in one process, untraced and then with spans at every
layer boundary, and prints every per-layer metric, the tracing
overhead, a self-time table and the runtime counters, and writes the
spans as Chrome trace-event JSON under ``.perfbench_out/``.  The last
line of standard output is one JSON object.  The exit code is nonzero
when any output differs from its reference.

``BENCHMARK.json`` lists the workloads and metrics;
``perfbench/baseline.json`` maps each layer metric to the end-to-end
metric it should move and records the figures measured at the seed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
#: Set-up runs per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: Rounds continue past ``--seconds`` until there are this many, so
#: ``sweeps_total`` always has its rounds.
MIN_ROUNDS = 12
#: Exact counts cover this many rounds at the start of a phase, which
#: the seed alone determines.
COUNT_ROUNDS = 3
#: ``sweeps_total`` averages the sweeps of this many leading rounds
#: (on ``param-sweep``, one pass through its request decks).
SWEEP_ROUNDS = 12


class Scratch:
    """Per-run state directories inside the checkout, removed at exit.

    Every set-up gets fresh compile-cache, native-cache and spill
    directories, so no run starts warm and ``~/.cache/repro`` is never
    touched; temporary files of the program and of ``cc`` land here
    too.
    """

    def __init__(self):
        self.top = ROOT / ".perfbench_tmp"
        self.top.mkdir(exist_ok=True)
        self.base = Path(tempfile.mkdtemp(prefix="run-", dir=self.top))
        tmp = self.base / "tmp"
        tmp.mkdir()
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
        self.count = 0

    def fresh(self) -> None:
        self.count += 1
        self.path = self.base / f"state-{self.count}"
        self.cache = self.path / "cache"
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        os.environ["REPRO_NATIVE_CACHE_DIR"] = str(self.path / "native")
        os.environ["REPRO_OOC_DIR"] = str(self.path / "ooc")

    def remove(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.top.rmdir()
        except OSError:
            pass


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/repro here; run it from the "
                         "repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         "not from this checkout")


def tail(samples):
    """``(value, percentile, n)``: the highest percentile with ten
    samples beyond it (half the samples when there are fewer than 20)."""
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - min(10, n // 2)
    return ordered[index], 100.0 * index / max(1, n - 1), n


def measure(workload, seconds, min_rounds, between=None):
    """Run rounds for ``seconds`` (and at least ``min_rounds``).

    ``between(index)`` runs after each round.
    """
    rng = random.Random(f"{workload.name}:{workload.seed}:rounds")
    started = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - started < seconds:
        workload.round(rng, index)
        index += 1
        if between is not None:
            between(index)
    return index


def set_up(workload_cls, seed, scratch, reps):
    """Set up ``reps`` times from empty caches; the last one is kept."""
    workload = workload_cls(seed)
    times = []
    for _ in range(reps):
        scratch.fresh()
        started = time.perf_counter()
        workload.setup(scratch)
        times.append(time.perf_counter() - started)
    workload.check_setup()
    return workload, times


def end_to_end(workload, setup_s):
    import resource

    round_tail, round_pct, rounds = tail(workload.round_s)
    cold_tail, cold_pct, colds = tail(workload.compile_cold_s)
    sweeps = workload.round_sweeps[:SWEEP_ROUNDS]
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s_p50": (statistics.median(workload.round_s), "s"),
        "round_s_tail": (round_tail, "s"),
        "cell_updates_per_s": (workload.cells / workload.run_s, "1/s"),
        "vs_handwritten": (workload.vs_handwritten(), "ratio"),
        "compile_cold_s_p50": (statistics.median(workload.compile_cold_s),
                               "s"),
        "compile_cold_s_tail": (cold_tail, "s"),
        "compile_warm_s_p50": (statistics.median(workload.compile_warm_s),
                               "s"),
        "requests_per_s": (workload.ops / sum(workload.round_s), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": (
            (workload.attempted - workload.failed) / workload.attempted,
            "ratio"),
        "sweeps_total": (sum(sweeps) / len(sweeps), "count"),
    }
    print(f"round_s_tail is p{round_pct:.1f} of {rounds} rounds; "
          f"compile_cold_s_tail is p{cold_pct:.1f} of {colds} cold C "
          f"compiles; error_ratio {workload.failed}/{workload.attempted}")
    for name, ratio in workload.ratio_medians().items():
        print(f"vs_handwritten {name:36s} {ratio:10.4f}")
    return metrics


def run_untraced(workload_cls, args, scratch):
    workload, times = set_up(workload_cls, args.seed, scratch, SETUP_REPS)
    import_s = args.import_s
    try:
        measure(workload, args.seconds, MIN_ROUNDS,
                workload.between_rounds)
    finally:
        workload.close()
    setup_s = import_s + statistics.median(times)
    print(f"setup: import {import_s:.3f}s + median of "
          f"{', '.join(f'{t:.3f}' for t in times)}s")
    return workload, end_to_end(workload, setup_s)


def run_traced(workload_cls, args, scratch):
    """Untraced then traced halves; per-layer metrics from the second."""
    from layers import per_layer, print_tables, snapshot
    from repro.obs import trace as obs_trace
    from tracing import Tracer

    half = args.seconds / 2.0
    plain, _ = set_up(workload_cls, args.seed, scratch, 1)
    try:
        measure(plain, half, COUNT_ROUNDS)
    finally:
        plain.close()

    workload, _ = set_up(workload_cls, args.seed, scratch, 1)
    tracer = Tracer()
    os.environ[obs_trace.TRACE_ENV] = "1"
    obs_trace.refresh_runtime_tracing()
    start = snapshot(tracer)
    window = {}

    def on_round(index):
        if index == COUNT_ROUNDS:
            window.update(snapshot(tracer))

    tracer.install()
    workload.tracer = tracer
    try:
        rounds = measure(workload, half, COUNT_ROUNDS, on_round)
    finally:
        tracer.uninstall()
        workload.tracer = None
        os.environ.pop(obs_trace.TRACE_ENV, None)
        obs_trace.refresh_runtime_tracing()
        workload.close()
    end = snapshot(tracer)
    metrics = per_layer(workload, plain, tracer, start, window, end,
                        rounds, workload.trace_extras())
    print_tables(tracer, start, end, rounds)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.chrome_trace(STARTED)))
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    for field in ("errors", "mismatches"):
        getattr(workload, field).extend(getattr(plain, field))
    workload.attempted += plain.attempted
    workload.failed += plain.failed
    return workload, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = Scratch()
    try:
        os.environ.pop("REPRO_TRACE", None)
        import_program()
        from workloads import WORKLOADS

        args.import_s = time.perf_counter() - STARTED
        if args.workload not in WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {args.workload!r};"
                             f" choose from {', '.join(WORKLOADS)}")
        runner = run_traced if args.trace else run_untraced
        workload, metrics = runner(WORKLOADS[args.workload], args, scratch)
    finally:
        stop_processes()
        scratch.remove()

    for line in workload.errors:
        print(f"failed op: {line}")
    for line in workload.mismatches:
        print(f"MISMATCH: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = not workload.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def stop_processes():
    """Stop the dist worker pool and wait for every child to end.

    The shared-memory halos start multiprocessing's resource tracker;
    stopping it here waits for that process too.
    """
    import multiprocessing

    if "repro.dist.pool" in sys.modules:
        sys.modules["repro.dist.pool"].shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker \
            ._stop()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for barrier-restore: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload cmove --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

Each workload is a fixed pool of units (trials, or per-size sweeps for
``grid``). A pass runs every unit of the pool once, in an order drawn from
``--seed``; a run measures whole passes for about ``--seconds``. ``--trace
0`` reports the end-to-end metrics with tracing off. ``--trace 1`` runs
every unit untraced and then traced and reports per-layer metrics per pass
and the tracing overhead. ``--workload all`` runs every workload both
ways, each in its own process. Every unit is checked against the digests in
reference.json. The last line of standard output is one JSON object; see
README.md in this directory.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
CACHE = BENCH / ".cache"

# Master seed of each pool's ExperimentConfig. reference.json holds the
# digests of both pools; the held-out one is for re-checking a gain on
# inputs nobody tuned against.
POOL_SEEDS = {"recorded": 0, "held-out": 1}

# The reference sweep of ROADMAP.md and its sha256, the same for any --jobs.
ROADMAP_SWEEP = ["sweep", "--n-list", "160", "--trials", "20", "--seed", "0"]
ROADMAP_SHA256 = "ab38dfec5fc08ef3b6b59351be72f35895b11dbe71723edac8dfd8f4918cf158"

# Trials per scheme and size. Eight make two chunks of four tasks per scheme,
# so the two workers run matching chunks side by side, as in the 100-trial grid.
GRID_TRIALS = 8
GRID_JOBS = 2
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: Optional[str]   # None: all four schemes through run_experiment
    sizes: tuple[int, ...]
    pool: int               # units per pass: trial indices, or one per size for grid
    tail_pct: float         # highest percentile with >= 10 samples beyond it in a run;
                            # grid has one or two samples a run and reports the slowest
    episode_tail_pct: float
    reference_kernel_s: float  # see "Machine speed" below


# Pools are sized so that at the commit that defined the benchmark a pass
# of a serial workload takes about ten seconds, two passes per 20-second
# run, and a grid pass about twenty, one pass per run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", None, (140, 160, 180), 3, 100, 99.9, 0.0085),
        Workload("cmove", "cmove", (180,), 12, 58, 99, 0.004),
        Workload("dmove", "dmove", (160,), 32, 84, 99, 0.004),
        Workload("rmove", "rmove", (180,), 768, 99, 99.9, 0.004),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import barrier_restore from this checkout's src/, never from an
    installed copy, and return its harness module."""
    if not (SRC / "barrier_restore" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'barrier_restore'}")
    sys.path.insert(0, str(SRC))
    import barrier_restore
    from barrier_restore import harness

    if Path(barrier_restore.__file__).resolve().parent != SRC / "barrier_restore":
        sys.exit(f"error: imported barrier_restore from {barrier_restore.__file__}")
    return harness


def load_reference() -> dict:
    if not REFERENCE.is_file():
        sys.exit(f"error: missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())


def pass_order(workload: Workload, seed: int, pass_index: int) -> list[int]:
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, pass_index])))
    return [int(u) for u in rng.permutation(workload.pool)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unit_trials(harness, workload: Workload) -> int:
    return GRID_TRIALS * len(harness.SCHEMES) if workload.scheme is None else 1


def run_unit(harness, workload: Workload, pool_seed: int, unit: int,
             jobs: int = GRID_JOBS) -> tuple[str, float]:
    """Run one unit through the package's public functions; returns the
    digest of its output and the program time in seconds.

    grid: ``run_experiment`` for one size, formatted by ``rows_to_csv`` as
    ``barrier-restore sweep`` prints it. Serial workloads: one
    ``run_trial``; the digest covers the trial's MetricsRows. Functions are
    looked up on the module at call time so the traced pass sees its
    wrappers.
    """
    clock = time.perf_counter
    if workload.scheme is None:
        config = harness.ExperimentConfig(n=workload.sizes[unit], trials=GRID_TRIALS,
                                          seed=pool_seed)
        start = clock()
        text = harness.rows_to_csv(harness.run_experiment(config, jobs=jobs), header=False)
        return digest(text), clock() - start
    config = harness.ExperimentConfig(n=workload.sizes[0], seed=pool_seed)
    seed = harness.trial_seed(config, unit)
    start = clock()
    result = harness.run_trial(workload.scheme, config, seed)
    elapsed = clock() - start
    return digest(repr(result.rows)), elapsed


# Machine speed. The shared two-CPU machine the benchmark was defined on
# drifts by up to a factor of two over tens of seconds, far more than the
# bounds in BENCHMARK.json. So a fixed kernel, shaped like the package's work
# (Python loops over small objects, n-by-n numpy arrays for n = 180), is
# timed about twice a second, and each unit's time is scaled by the
# workload's reference_kernel_s over the kernel time while the unit ran (see
# Tally.scaled). On that machine this halved the spread of 10-second
# averages. The kernel touches none of the package, so a slower program
# still shows as slower; only the machine's drift cancels. The reference is
# a typical kernel time there, so scaled times stay close to raw ones; on
# the grid the kernel runs beside two busy workers and reads about twice as
# long. Raw times are kept in the result file.
CALIBRATE_EVERY_S = 0.5


class _Node:
    __slots__ = ("x", "y", "energy")

    def __init__(self, x: float, y: float, energy: float):
        self.x, self.y, self.energy = x, y, energy


def speed_kernel() -> int:
    import numpy as np

    nodes = [_Node((i * 22.3) % 4000.0, (i * 7.1) % 60.0, 100.0) for i in range(180)]
    near = 0
    for a in nodes[::6]:
        for b in nodes:
            d = math.hypot(a.x - b.x, a.y - b.y)
            if d <= 60.0 and d <= a.energy:
                near += 1
    xs = np.array([n.x for n in nodes])
    ys = np.array([n.y for n in nodes])
    for _ in range(6):
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        near += int(np.count_nonzero(dx * dx + dy * dy <= 3600.0))
    v = np.arange(200.0)
    for _ in range(150):
        v = np.sqrt(v * v + 1.0)
        v -= v.min()
    return near


def kernel_seconds() -> float:
    """Median of three timed kernel runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Tally:
    """Trials attempted and failed, the raw program time of every unit that
    ran, and the kernel times sampled in between."""
    reference_kernel_s: float
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    units: list[tuple[int, int, float, float, float, int]] = field(default_factory=list)
    # (unit, pass, start, end, raw seconds, trials) of every unit that ran
    kernel: list[tuple[float, float]] = field(default_factory=list)  # time, kernel s

    def calibrate(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or not self.kernel or start - self.kernel[-1][0] >= CALIBRATE_EVERY_S:
            seconds = kernel_seconds()
            self.kernel.append(((start + time.perf_counter()) / 2, seconds))

    def scaled(self) -> list[float]:
        """Seconds at reference speed of every unit that ran, in run order.

        A unit's kernel time is the mean of the samples taken while it ran,
        which only the grid's sampling thread takes; a unit without one
        interpolates between the samples around its midpoint."""
        at = [t for t, _ in self.kernel]
        out = []
        for _, _, start, end, seconds, _ in self.units:
            lo, hi = bisect.bisect_left(at, start), bisect.bisect_right(at, end)
            if hi > lo:
                local = statistics.fmean(k for _, k in self.kernel[lo:hi])
            else:
                mid = (start + end) / 2
                i = min(max(bisect.bisect_left(at, mid), 1), len(at) - 1)
                (t0, k0), (t1, k1) = self.kernel[i - 1], self.kernel[i]
                local = k0 + (k1 - k0) * (mid - t0) / (t1 - t0)
            out.append(seconds * self.reference_kernel_s / local)
        return out

    def summary(self) -> dict:
        scaled = self.scaled()
        passes: dict[int, float] = {}
        raw_passes: dict[int, float] = {}
        pass_trials: dict[int, int] = {}
        for s, (_, p, _, _, raw, trials) in zip(scaled, self.units):
            passes[p] = passes.get(p, 0.0) + s
            raw_passes[p] = raw_passes.get(p, 0.0) + raw
            pass_trials[p] = pass_trials.get(p, 0) + trials
        total = sum(scaled)
        done = self.attempted - self.failed
        return {
            "pass_s": list(passes.values()),
            "raw_pass_s": list(raw_passes.values()),
            "trial_ms": [s * 1e3 / u[5] for s, u in zip(scaled, self.units)],
            "pass_trial_ms": [passes[p] * 1e3 / pass_trials[p] for p in passes],
            "trials_per_s": done / total if total else 0.0,
            "raw_trials_per_s": done / sum(u[4] for u in self.units) if self.units else 0.0,
            "kernel_ms_p50": statistics.median(k for _, k in self.kernel) * 1e3,
        }


@contextmanager
def sampling_while_waiting(tally: Tally, active: bool):
    """While pool workers run a unit this process only waits for them, so a
    thread times the kernel every CALIBRATE_EVERY_S meanwhile; a grid unit
    lasts seconds, long enough for the machine's speed to change.

    Timing the kernel only between grid units, as on the serial workloads,
    left scaled grid pass times spreading by 10-22% between runs on the
    machine the benchmark was defined on, against 5-14% with this
    thread. The price: the kernel shares the two CPUs with the workers and
    takes a few percent of one, and its reading depends on how busy the
    workers are, so a change that leaves a worker idle longer reads a little
    slower than it is, and one that adds busy workers a little faster."""
    if not active:
        yield
        return
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(CALIBRATE_EVERY_S):
            tally.calibrate(force=True)

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def run_checked(harness, workload: Workload, expected: list[str], pool_seed: int,
                unit: int, tally: Tally, pass_index: int, jobs: int = GRID_JOBS) -> None:
    """Run one unit, compare its digest with the reference and add it to
    ``tally``. A unit that raises or mismatches counts all its trials as
    failed."""
    trials = unit_trials(harness, workload)
    tally.attempted += trials
    start = time.perf_counter()
    try:
        with sampling_while_waiting(tally, workload.scheme is None and jobs > 1):
            got, seconds = run_unit(harness, workload, pool_seed, unit, jobs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.failed += trials
        return
    tally.digests.append(got)
    if got != expected[unit]:
        print(f"error: {workload.name} unit {unit} digest {got} != reference "
              f"{expected[unit]}", file=sys.stderr)
        tally.failed += trials
    tally.units.append((unit, pass_index, start, time.perf_counter(), seconds, trials))
    tally.calibrate()


def run_pass(harness, workload: Workload, expected: list[str], pool_seed: int,
             seed: int, index: int, tally: Tally) -> None:
    tally.calibrate(force=True)
    for unit in pass_order(workload, seed, index):
        run_checked(harness, workload, expected, pool_seed, unit, tally, index)
    tally.calibrate(force=True)


def measure(harness, workload: Workload, expected: list[str], pool_seed: int,
            seed: int, seconds: float) -> Tally:
    """Closed loop: whole passes back to back for about ``seconds``."""
    tally = Tally(workload.reference_kernel_s)
    start = time.perf_counter()
    passes = 0
    while more_passes(start, passes, seconds):
        run_pass(harness, workload, expected, pool_seed, seed, passes, tally)
        passes += 1
    return tally


def more_passes(start: float, passes: int, seconds: float) -> bool:
    """Whole passes, at least one, while a third of another still fits in
    ``seconds``; the run overshoots by at most a third of a pass."""
    elapsed = time.perf_counter() - start
    return passes == 0 or elapsed + elapsed / passes / 3 < seconds


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie above it."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
    return value, sum(1 for v in ordered if v > value)


# Set-up is mostly importing modules, which the speed kernel tracks poorly:
# scaled by it, medians of eleven still spread by 12-20% between runs on the
# machine the benchmark was defined on, and by 6-17% when scaled by a numpy
# import in a separate interpreter. So each interpreter imports numpy first
# and its set-up time is scaled by that import's time against
# NUMPY_IMPORT_REFERENCE_S, a typical time there; medians of eleven then
# spread by 1-2%. Work the package adds to set-up shows in full; only a
# change that stops importing numpy would not show its gain.
SETUP_CODE = r"""
import sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import barrier_restore
from barrier_restore.harness import ExperimentConfig, trial_seed
trials, seed, pool = int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
configs = [ExperimentConfig(n=int(n), trials=trials, seed=seed) for n in sys.argv[2].split(",")]
seeds = [trial_seed(c, t) for c in configs for t in range(max(trials, pool))]
print(repr(time.perf_counter() - start), repr(numpy_s))
"""
NUMPY_IMPORT_REFERENCE_S = 0.09


def setup_seconds(workload: Workload, pool_seed: int) -> float:
    """Median over fresh interpreters of importing numpy and the package and
    building one pass's configs and trial seeds, at reference speed."""
    trials = GRID_TRIALS if workload.scheme is None else 100
    pool = 0 if workload.scheme is None else workload.pool
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), ",".join(map(str, workload.sizes)),
             str(trials), str(pool_seed), str(pool)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, numpy_s = map(float, out.stdout.split())
        samples.append(seconds * NUMPY_IMPORT_REFERENCE_S / numpy_s)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "barrier_restore").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def roadmap_check() -> dict[str, str]:
    """sha256 of the ROADMAP reference sweep under --jobs 1 and --jobs 2.

    The two sweeps take about forty seconds, twice the measurement, so the
    hashes are kept in .cache/ keyed by the source tree and interpreter, and
    computed again whenever either changes.
    """
    import numpy

    key = digest(source_digest() + sys.version + numpy.__version__)
    cache = CACHE / "roadmap-check.json"
    if cache.is_file():
        doc = json.loads(cache.read_text())
        if doc.get("key") == key:
            return doc["sha256"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    hashes = {}
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "barrier_restore", *ROADMAP_SWEEP, "--jobs", jobs],
            cwd=ROOT, env=env, capture_output=True, timeout=300, check=False,
        )
        hashes[jobs] = (hashlib.sha256(proc.stdout).hexdigest() if proc.returncode == 0
                        else f"exit {proc.returncode}")
    CACHE.mkdir(exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps({"key": key, "sha256": hashes}))
    tmp.replace(cache)
    return hashes


def environment(seed: int, pool: str) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu_model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
        "pool": pool,
    }


def end_to_end(harness, workload: Workload, expected: list[str], pool_seed: int,
               seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    tally = measure(harness, workload, expected, pool_seed, seed, seconds)
    rss = peak_rss_mb()  # before the setup probes add children of their own
    summary = tally.summary()
    # Trials on the grid run inside pool workers and cannot be timed one by
    # one from here; its samples are each pass's time per trial.
    trial_ms = summary["trial_ms" if workload.scheme else "pass_trial_ms"]
    tail, beyond = percentile(trial_ms, workload.tail_pct)
    metrics = {
        "setup_s": setup_seconds(workload, pool_seed),
        "wall_s": statistics.median(summary["pass_s"]),
        "trials_per_s": summary["trials_per_s"],
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_tail": tail,
        "peak_rss_mb": rss,
    }
    samples = (f"{len(trial_ms)} passes, time per trial" if workload.scheme is None
               else f"{len(trial_ms)} trials")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, scaled by numpy's "
                   f"import time",
        "wall_s": f"median of {len(summary['pass_s'])} passes of {workload.pool} units"
                  + (f" ({GRID_TRIALS} trials x 4 schemes, {GRID_JOBS} jobs)"
                     if workload.scheme is None else "")
                  + f"; raw {statistics.median(summary['raw_pass_s']):.4g} s",
        "trials_per_s": f"raw {summary['raw_trials_per_s']:.4g} 1/s",
        "trial_ms_p50": f"median of {samples}",
        "trial_ms_tail": f"p{workload.tail_pct:g} of {samples}; {beyond} beyond",
        "peak_rss_mb": "this process plus its largest child",
        "speed": f"kernel median {summary['kernel_ms_p50']:.4g} ms, reference "
                 f"{workload.reference_kernel_s * 1e3:g} ms; times above are at "
                 f"reference speed",
    }
    return tally, metrics, notes


def layer_metrics(workload: Workload, tracer, passes: int, overhead: float) -> dict:
    """Per-layer totals per pass, means and ratios over calls, episode
    times, and the tracing overhead."""
    layers = tracer.layers

    def calls(name: str) -> float:
        return layers[name].calls / passes

    def self_ms(name: str) -> float:
        return layers[name].self_s * 1e3 / passes

    def total(name: str, key: str) -> float:
        return layers[name].stats[key] / passes

    def mean(name: str, key: str) -> float:
        n = layers[name].calls
        return layers[name].stats[key] / n if n else 0.0

    episodes = tracer.episode_ms
    return {
        "harness.deploy.calls": calls("harness.deploy"),
        "harness.deploy.self_ms": self_ms("harness.deploy"),
        "harness.deploy.redraws": total("harness.deploy", "redraws"),
        "harness.trial.self_ms": self_ms("harness.trial"),
        "harness.experiment.self_ms": self_ms("harness.experiment"),
        "graph.build.calls": calls("graph.build"),
        "graph.build.self_ms": self_ms("graph.build"),
        "graph.build.sensors_mean": mean("graph.build", "sensors"),
        "graph.bfs.calls": calls("graph.bfs"),
        "graph.bfs.self_ms": self_ms("graph.bfs"),
        "graph.bfs.found_ratio": mean("graph.bfs", "found"),
        "graph.verify.calls": calls("graph.verify"),
        "graph.verify.self_ms": self_ms("graph.verify"),
        "central.build_assignment.calls": calls("central.build_assignment"),
        "central.build_assignment.self_ms": self_ms("central.build_assignment"),
        "central.build_assignment.rows_mean": mean("central.build_assignment", "rows"),
        "central.build_assignment.cols_mean": mean("central.build_assignment", "cols"),
        "central.build_assignment.vacancies_mean":
            mean("central.build_assignment", "vacancies"),
        "central.build_assignment.single_vacancy_ratio":
            mean("central.build_assignment", "single_vacancy"),
        "central.hungarian.calls": calls("central.hungarian"),
        "central.hungarian.self_ms": self_ms("central.hungarian"),
        "central.hungarian.infeasible_ratio": mean("central.hungarian", "infeasible"),
        "central.restore.calls": calls("central.restore"),
        "central.restore.self_ms": self_ms("central.restore"),
        "central.restore.alternate_ratio": mean("central.restore", "alternate"),
        "distributed.elect.calls": calls("distributed.elect"),
        "distributed.elect.self_ms": self_ms("distributed.elect"),
        "distributed.elect.messages": total("distributed.elect", "messages"),
        "distributed.elect.rounds": total("distributed.elect", "rounds"),
        "distributed.mldfs.calls": calls("distributed.mldfs"),
        "distributed.mldfs.self_ms": self_ms("distributed.mldfs"),
        "distributed.mldfs.found_ratio": mean("distributed.mldfs", "found"),
        "distributed.handle_failure.calls": calls("distributed.handle_failure"),
        "distributed.handle_failure.self_ms": self_ms("distributed.handle_failure"),
        "baselines.rmove.calls": calls("baselines.rmove"),
        "baselines.rmove.self_ms": self_ms("baselines.rmove"),
        "baselines.rmove.moves_mean": mean("baselines.rmove", "moves"),
        "core.active_sensors.calls": calls("core.active_sensors"),
        "core.active_sensors.self_ms": self_ms("core.active_sensors"),
        "core.apply_move.calls": calls("core.apply_move"),
        "core.apply_move.self_ms": self_ms("core.apply_move"),
        "scheme.episode_ms_p50": statistics.median(episodes) if episodes else 0.0,
        "scheme.episode_ms_tail":
            percentile(episodes, workload.episode_tail_pct)[0] if episodes else 0.0,
        "tracing_overhead_frac": overhead,
    }


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if "_ms" in last:
        return "ms"
    if last.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def traced_pass(harness, workload: Workload, expected: list[str], pool_seed: int,
                seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Passes in which every unit runs untraced and then traced, for about
    ``seconds``; running the two back to back keeps the machine's drift out
    of the tracing overhead.

    Totals are reported per traced pass; every pass covers the same pool,
    so counts repeat exactly from run to run. The grid runs on one job
    here, untraced and traced alike: spans recorded in pool workers would
    not come back to this process.
    """
    from spans import Tracer, instrumented

    tracer = Tracer()
    plain = Tally(workload.reference_kernel_s)
    traced = Tally(workload.reference_kernel_s)
    passes = 0
    start = time.perf_counter()
    while more_passes(start, passes, seconds):
        for unit in pass_order(workload, seed, passes):
            run_checked(harness, workload, expected, pool_seed, unit, plain, passes, jobs=1)
            with instrumented(tracer):
                run_checked(harness, workload, expected, pool_seed, unit, traced, passes,
                            jobs=1)
            tracer.fold()
        passes += 1
    overhead = (sum(u[4] for u in traced.units) / sum(u[4] for u in plain.units) - 1.0
                if plain.units else 0.0)
    both = Tally(workload.reference_kernel_s, attempted=plain.attempted + traced.attempted,
                 failed=plain.failed + traced.failed, digests=traced.digests)
    notes = {
        "passes": f"{passes} passes of {workload.pool} units, each run untraced and "
                  f"traced; totals are per pass",
        "scheme.episode_ms_tail": f"p{workload.episode_tail_pct:g} of "
                                  f"{len(tracer.episode_ms)} restore calls",
        "tracing_overhead_frac": "raw traced over untraced time of the same units",
    }
    if workload.scheme is None:
        notes["jobs"] = "grid traced on 1 job: spans from pool workers do not come back"
    return both, layer_metrics(workload, tracer, passes, overhead), notes


def report(workload: Workload, args, tally: Tally, metrics: dict, notes: dict,
           units: dict, roadmap: dict[str, str]) -> int:
    roadmap_ok = all(h == ROADMAP_SHA256 for h in roadmap.values())
    correct = tally.failed == 0 and tally.attempted > 0 and roadmap_ok
    pool = "held-out" if args.held_out else "recorded"
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {workload.name}  seed {args.seed}  pool {pool}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]:5s} {notes.get(name, '')}")
    print(f"  {'failed_frac':46s} {frac:14.6g} ratio {tally.failed} of "
          f"{tally.attempted} trials")
    for key in ("speed", "passes", "jobs"):
        if key in notes:
            print(f"  ({notes[key]})")
    for jobs, h in roadmap.items():
        status = "ok" if h == ROADMAP_SHA256 else f"MISMATCH {h}"
        print(f"  roadmap sweep --jobs {jobs}: {status}")

    result = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, pool),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": frac,
        "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k, "")}
                    for k, v in metrics.items()},
        "unit_digests": tally.digests,
        "units": [[unit, p, raw, s] for (unit, p, _, _, raw, _), s
                  in zip(tally.units, tally.scaled())],
        "roadmap_sweep_sha256": roadmap,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-{pool}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process so that
    peak memory and imported state do not carry over."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--held-out"] if args.held_out else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                doc = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"error: {name} --trace {trace} printed no result "
                      f"(exit {proc.returncode})", file=sys.stderr)
                return 1
            merged["correct"] = merged["correct"] and doc["correct"]
            merged["attempted"] += doc["attempted"]
            merged["failed"] += doc["failed"]
            for key, value in doc["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run the held-out pool instead of the recorded one")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    harness = load_package()
    reference = load_reference()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    pool = "held-out" if args.held_out else "recorded"
    expected = reference["pools"][workload.name][pool]
    if len(expected) != workload.pool:
        sys.exit(f"error: reference.json has {len(expected)} {workload.name} digests "
                 f"for a pool of {workload.pool}; run perfbench/record.py")

    measure_fn = traced_pass if args.trace else end_to_end
    tally, metrics, notes = measure_fn(harness, workload, expected, POOL_SEEDS[pool],
                                       args.seed, args.seconds)
    units = {k: layer_unit(k) for k in metrics} if args.trace else END_TO_END_UNITS
    return report(workload, args, tally, metrics, notes, units, roadmap_check())


if __name__ == "__main__":
    sys.exit(main())

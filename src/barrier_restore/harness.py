"""Deployment generation, failure injection, metric computation, and
experiment orchestration.

Sensors are dropped along the horizontal midline with uniform target
spacing and Gaussian placement error. Each trial kills sensors one at a
time, uniformly at random among the survivors, invoking the scheme's
restore step after every kill; trials aggregate into per-report-point mean
metrics. Everything is keyed off one master seed: identical configs produce
byte-identical CSV output regardless of worker count.

A trial's seed does not depend on the scheme, so every scheme replays the
same deployment and failure order (common random numbers). An experiment
therefore deploys each trial once, in one task that runs every configured
scheme on its own exact copy of that world (``World.copy``); the last
scheme takes the deployed world itself.

A process forks its worker pool once, on its first run with more than one
worker, and keeps it for every later run with that worker count (see
``run_experiment``); the workers run the package as it stood at the fork,
and end when it does, killed or not.
"""
from __future__ import annotations

import atexit
import concurrent.futures
import json
import math
import os
import threading
import time
from dataclasses import dataclass, fields
from functools import reduce
from numbers import Integral, Real
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import restore_rmove
from .central import RestoreOutcome, restore_cmove, restore_nmove
from .core import (
    EnergyModel,
    Point,
    Region,
    Sensor,
    World,
    seeded_rng,
)
from .distributed import Election, MessageBus, handle_failure_dmove, init_recovery_nodes
from .graph import find_barrier, verify_barrier
# build_intersection_graph is not called here; perfbench/selftest.py reads it
# on this module to check that tracing put the original back.
from .core import build_intersection_graph  # noqa: F401

SCHEMES = ("nmove", "rmove", "cmove", "dmove")

DEFAULT_REPORT_POINTS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


class InitialBarrierImpossible(Exception):
    """No deployment draw produced an initial barrier within the redraw
    budget."""


# The number type each scalar field annotation asks for; None is allowed
# where it is the default. A bool is no number here, though Python counts
# it as an Integral.
_NUMBER_KINDS = {"int": Integral, "Optional[int]": Integral,
                 "float": Real, "Optional[float]": Real}


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    length: float = 4000.0
    width: float = 60.0
    rho: float = 30.0
    comm: Optional[float] = None          # defaults to 2*rho
    sigma: float = 6.0
    initial_energy: float = 100.0
    cost_per_unit: float = EnergyModel.cost_per_unit_displacement
    static_threshold: float = EnergyModel.static_threshold
    k_hop_budget: Optional[int] = None    # defaults to max(2, n//20)
    failure_fraction_max: float = 0.30
    report_points: tuple[float, ...] = DEFAULT_REPORT_POINTS
    trials: int = 100
    schemes: tuple[str, ...] = SCHEMES
    seed: int = 0
    max_redraws: int = 50

    def __post_init__(self) -> None:
        # Values may come from a JSON config file, so their types are
        # checked first; comparisons are written so that NaN fails them.
        for f in fields(self):
            value, kind = getattr(self, f.name), _NUMBER_KINDS.get(f.type)
            optional = value is None and f.default is None
            if kind and not optional and (
                    isinstance(value, bool) or not isinstance(value, kind)):
                what = "an integer" if kind is Integral else "a number"
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if kind is Real and value is not None:
                try:
                    float(value)
                except OverflowError:
                    raise ValueError(f"{f.name} must be finite, got an integer too "
                                     "large for a float") from None
        if not self.report_points or not all(
                isinstance(p, Real) and not isinstance(p, bool) for p in self.report_points):
            raise ValueError("report_points must be one or more numbers")
        if not self.schemes or not all(isinstance(name, str) for name in self.schemes):
            raise ValueError("schemes must be one or more strings")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must name each scheme once, got {list(self.schemes)}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        # Numpy cannot even size the (n, 2) float64 offsets beyond this.
        if 16 * self.n > np.iinfo(np.intp).max:
            raise ValueError(f"n must be at most {np.iinfo(np.intp).max // 16}, got {self.n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_redraws < 1:
            raise ValueError("max_redraws must be at least 1")
        if self.k_hop_budget is not None and self.k_hop_budget < 1:
            raise ValueError("k_hop_budget must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.region()  # validates length, width, rho and comm
        for name in ("sigma", "initial_energy"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        self.energy_model()  # validates cost_per_unit and static_threshold
        if not 0 < self.failure_fraction_max <= 1:
            raise ValueError("failure_fraction_max must be in (0, 1]")
        if not all(a < b for a, b in zip(self.report_points, self.report_points[1:])):
            raise ValueError("report_points must be strictly ascending, each point once")
        if not all(0 <= p <= self.failure_fraction_max for p in self.report_points):
            raise ValueError("report_points must lie in [0, failure_fraction_max]")
        # The CSV keys each row by the point's percentage as rows_to_csv
        # prints it.
        printed = [f"{p * 100:g}" for p in self.report_points]
        if len(set(printed)) < len(printed):
            raise ValueError(f"report_points must print as distinct percentages, got {printed}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")

    def region(self) -> Region:
        comm = self.comm if self.comm is not None else 2 * self.rho
        return Region(self.length, self.width, self.rho, comm)

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.cost_per_unit, self.static_threshold)


@dataclass(frozen=True)
class MetricsRow:
    scheme: str
    n: int
    trials: int
    failure_fraction: float
    recovery_rate: float
    avg_total_displacement: float
    high_energy_pct: float


@dataclass
class EpisodeRecord:
    """One failure episode; its fields are the detail log's first keys."""

    episode: int
    failed: int
    on_barrier: bool
    mechanism: str
    success: bool
    displacement: float


@dataclass
class TrialResult:
    """A trial's ``MetricsRow(trials=1)`` per report point, folded from its
    episodes (see ``run_trial``), and the episodes in failure order."""

    rows: list[MetricsRow]
    episodes: list[EpisodeRecord]


def generate_deployment(config: ExperimentConfig, rng: np.random.Generator) -> list[Sensor]:
    """Uniformly spaced targets along the midline plus Gaussian offsets on
    both axes; y is clamped to the belt. Coordinates are plain Python
    floats: the offsets leave numpy as a list, so every later distance is
    float arithmetic rather than slower numpy-scalar arithmetic on the
    same values."""
    n, width, energy = config.n, config.width, config.initial_energy
    half = width / 2
    spacing = config.length / (n - 1)
    # abs: numpy rejects a scale of -0.0, which the config accepts as zero.
    offsets = rng.normal(0.0, abs(config.sigma), size=(n, 2)).tolist()
    return [Sensor(i, Point(i * spacing + dx, min(max(half + dy, 0.0), width)),
                   energy, energy)
            for i, (dx, dy) in enumerate(offsets)]


def designate_first_chain(world: World) -> bool:
    """Whether the world has a barrier; if so, ``find_barrier``'s becomes its chain."""
    barrier = find_barrier(world.graph)
    if barrier is not None:
        world.edit_chain(0, len(world.barrier), barrier)
    return barrier is not None


def deploy_with_barrier(config: ExperimentConfig, seed: int) -> World:
    """Draw deployments (fresh sub-seed each attempt) until one forms an
    initial barrier."""
    region = config.region()
    for attempt in range(config.max_redraws):
        rng = seeded_rng(seed, 0, attempt)
        world = World(region, generate_deployment(config, rng), config.energy_model())
        if designate_first_chain(world):
            return world
    raise InitialBarrierImpossible(
        f"no initial barrier after {config.max_redraws} draws (seed {seed})"
    )


def run_trial(scheme: str, config: ExperimentConfig, seed: int,
              world: Optional[World] = None) -> TrialResult:
    """One seeded trial: deploy, fail sensors one by one, restore, report.

    The trial deploys ``deploy_with_barrier(config, seed)`` itself unless it
    is given ``world``, which must be that deployment or an exact copy of it
    (``World.copy``) that nothing has changed yet; the trial changes it.

    Each episode is one ``run_episode`` with one victim. A failed
    restoration does not end the trial; the centralized schemes keep
    retrying the accumulated gap on later episodes, while the local schemes
    need the chain whole and simply keep failing until the trial ends.

    The failure order is drawn once, before the first failure, from the
    trial's seed alone, so every scheme replays it. Each victim is uniform
    among the survivors: ``live`` is the live ids in id order after deploy,
    and one ``integers`` call draws every episode's index into what is left
    of it. Numpy bounds each element of that call on its own, so the order
    equals one scalar draw per episode. Only ``run_episode`` fails sensors
    during a trial.

    A report point p covers the first f = floor(p·N) episodes. Its row's
    recovery rate is the percentage of them that succeeded and its
    displacement their summed displacement over f, or 100 and 0 when f is
    0. Its high-energy share counts the live sensors above 90% of
    ``config.initial_energy`` right after episode f (before the first
    failure for f = 0), the one fact that the episode records lack.
    """
    if world is None:
        world = deploy_with_barrier(config, seed)
    fail_rng = seeded_rng(seed, 1)
    restore = start_scheme(scheme, world, seeded_rng(seed, 2), k=config.k_hop_budget)

    total_failures = math.floor(config.failure_fraction_max * config.n)
    marks = {math.floor(point * config.n) for point in config.report_points}
    threshold = 0.9 * config.initial_energy
    # Failures at a report point -> live sensors above the threshold then.
    high = {0: _count_high(world, threshold)} if 0 in marks else {}
    episodes: list[EpisodeRecord] = []
    live = [s.id for s in world.active_sensors()]
    draws = fail_rng.integers(0, list(range(len(live), len(live) - total_failures, -1)))
    for episode, failed_id in enumerate([live.pop(i) for i in draws.tolist()], 1):
        episodes.append(run_episode(world, restore, episode, [failed_id])[0])
        if episode in marks:
            high[episode] = _count_high(world, threshold)

    rows: list[MetricsRow] = []
    for point in config.report_points:
        failures = math.floor(point * config.n)
        done = episodes[:failures]
        if failures:
            rate = 100.0 * len([ep for ep in done if ep.success]) / failures
            # A left fold from 0.0, as the detail log lists them: builtin
            # sum compensates float rounding from Python 3.12 on.
            disp = reduce(add, [ep.displacement for ep in done], 0.0) / failures
        else:
            rate, disp = 100.0, 0.0
        rows.append(MetricsRow(
            scheme=scheme,
            n=config.n,
            trials=1,
            failure_fraction=point,
            recovery_rate=rate,
            avg_total_displacement=disp,
            high_energy_pct=100.0 * high[failures] / config.n,
        ))
    return TrialResult(rows, episodes)


def run_episode(world: World, restore: Callable[[int], RestoreOutcome], episode: int,
                victims: Sequence[int]) -> tuple[EpisodeRecord, RestoreOutcome]:
    """One failure episode: fail every id of ``victims`` (``World.fail``),
    call the scheme's step (see ``start_scheme``) once with the first, and
    read the verdict. The episode succeeds when the designated chain
    verifies after the step: ``verify_barrier`` reads the chain's broken
    links, which the world keeps current. The record names the first victim
    and whether it held a chain slot before it failed."""
    first = victims[0]
    on_chain = first in world.slots
    for sid in victims:
        world.fail(sid)
    outcome = restore(first)
    return (EpisodeRecord(episode, first, on_chain, outcome.mechanism,
                          verify_barrier(world), outcome.total_displacement), outcome)


def _count_high(world: World, threshold: float) -> int:
    """Live sensors holding more energy than ``threshold``."""
    return len([s for s in world.sensors.values() if not s.failed and s.energy > threshold])


def start_scheme(scheme: str, world: World, rng: np.random.Generator,
                 k: Optional[int] = None, bus: Optional[MessageBus] = None,
                 ) -> Callable[[int], RestoreOutcome]:
    """Prepare ``scheme`` on a world with a designated barrier and return its
    restore step, called with each sensor id that the caller has just failed
    (``World.fail``), as ``run_episode`` does. dmove elects its recovery
    nodes here (``k`` is its hop budget, ``bus`` its election's message bus,
    a fresh one by default); rmove draws its coin from ``rng``.

    The centralized schemes see the whole world, so each step retries
    every failed chain member, ``World.holes``; the local schemes react to
    the new failure alone, whatever the global state of the chain. A step
    changes the chain only through ``World.edit_chain``, which edits it in
    place and records the edit in ``World.chain_edits``. Entry points are
    looked up in this module on every call, so a tracer that rebinds them
    here sees every step. A hop budget below 1 raises ``ValueError``.
    """
    if k is not None and k < 1:
        raise ValueError(f"hop budget k must be at least 1, got {k}")
    if scheme == "nmove":
        return lambda failed_id: restore_nmove(world)
    if scheme == "cmove":
        return lambda failed_id: restore_cmove(world)
    if scheme == "rmove":
        return lambda failed_id: restore_rmove(world, failed_id, rng)
    if scheme == "dmove":
        election = init_recovery_nodes(Election(world, bus))
        return lambda failed_id: handle_failure_dmove(election, failed_id, k=k)
    raise ValueError(f"unknown scheme {scheme!r}")


def trial_seed(config: ExperimentConfig, trial_index: int) -> int:
    """Scheme-independent per-trial seed so every scheme replays the same
    deployment and failure order."""
    mix = np.random.SeedSequence([config.seed, config.n, trial_index])
    return int(mix.generate_state(1, dtype=np.uint64)[0])


def _trial_task(
    args: tuple[ExperimentConfig, int, bool]
) -> list[tuple[list[MetricsRow], list[EpisodeRecord]]]:
    """Every configured scheme on one trial, in ``config.schemes`` order.

    The trial deploys once; each scheme but the last runs on its own copy of
    the deployed world and the last on the world itself, so a one-scheme
    experiment makes no copy. Episodes come back only when ``keep_episodes``
    is set, so a run without a detail log sends none through the pool. The
    deploy and the trials go through this module's names at call time, so a
    tracer that rebinds them here sees them."""
    config, seed, keep_episodes = args
    world = deploy_with_barrier(config, seed)
    last = len(config.schemes) - 1
    out = []
    for i, scheme in enumerate(config.schemes):
        result = run_trial(scheme, config, seed, world if i == last else world.copy())
        out.append((result.rows, result.episodes if keep_episodes else []))
    return out


# This process's worker pool and its worker count, kept from one parallel
# run_experiment to the next; None until the first and after a drop.
_pool: Optional[tuple[int, concurrent.futures.Executor]] = None


def _drop_pool() -> None:
    """Shut down this process's worker pool, if it has one: cancel its tasks
    not yet started and wait until its workers and threads have ended."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True, cancel_futures=True)
        _pool = None


def _end_with_parent() -> None:
    """Pool worker initializer: end this worker once its parent has died.
    An idle worker waits on its task queue, whose write end its siblings
    hold too, so it would never see the death and would live on under
    another parent. A daemon thread polls the parent id, which changes when
    the worker is re-parented; the pool always forks (``_workers``), so the
    parent is the process that made the pool."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, name="end-with-parent", daemon=True).start()


# concurrent.futures' own exit hook has ended the workers by the time this
# runs; dropping the pool then frees it while the modules it calls at its
# release are still loaded, not during interpreter teardown, where that
# call fails on a module already cleared.
atexit.register(_drop_pool)


def _workers(count: int) -> concurrent.futures.Executor:
    """This process's pool of ``count`` worker processes, forked on first use.

    The pool forks whatever the process's start method, so its workers run
    the package as it stands in this process and are its children. A pool
    of another size is dropped first: joining its threads before the fork
    keeps every fork in a single-threaded process, which Python 3.12 warns
    about otherwise, since a fork beside a live thread can deadlock."""
    import multiprocessing

    global _pool
    if _pool is not None and _pool[0] != count:
        _drop_pool()
    if _pool is None:
        _pool = (count, concurrent.futures.ProcessPoolExecutor(
            max_workers=count, mp_context=multiprocessing.get_context("fork"),
            initializer=_end_with_parent))
    return _pool[1]


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, detail_sink=None
) -> list[MetricsRow]:
    """Mean metrics per (scheme, report point) over seeded trials.

    One task per trial deploys once and runs every configured scheme on it
    (see ``_trial_task``); ``jobs`` above 1 spreads the tasks over worker
    processes, at most one per trial and one per CPU, since the pool starts
    every worker at once. The pool's modules (``concurrent.futures.process``
    and ``multiprocessing``) load on a process's first run with more than
    one worker, never on a serial one.

    The process keeps its pool between runs: the first run with more than
    one worker forks it, later runs with the same worker count reuse its
    workers, and a run with another count replaces it. Workers run the
    package as it stood when they were forked. A run that raises while its
    tasks run (a size with no barrier, a dead worker, an interrupt) cancels
    the tasks not yet started and drops the pool; otherwise the workers end
    with the interpreter, or soon after it if it is killed
    (``_end_with_parent``). Results are merged in (scheme, trial) order, so
    output never depends on the worker count. ``detail_sink``, when given,
    receives one JSON line per failure episode."""
    seeds = [trial_seed(config, t) for t in range(config.trials)]
    tasks = [(config, seed, detail_sink is not None) for seed in seeds]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        try:
            per_trial = list(_workers(workers).map(_trial_task, tasks, chunksize=1))
        except BaseException:
            _drop_pool()
            raise
    else:
        per_trial = [_trial_task(t) for t in tasks]

    out: list[MetricsRow] = []
    # A detail-log line starts with the record's fields, in field order.
    keys = [f.name for f in fields(EpisodeRecord)]
    for i, scheme in enumerate(config.schemes):
        results = [trial[i] for trial in per_trial]
        if detail_sink is not None:
            for seed, (_, episodes) in zip(seeds, results):
                for episode in episodes:
                    doc = {key: getattr(episode, key) for key in keys}
                    doc.update(scheme=scheme, n=config.n, trial_seed=seed)
                    detail_sink.write(json.dumps(doc) + "\n")
        for p_idx, point in enumerate(config.report_points):
            rates = [rows[p_idx].recovery_rate for rows, _ in results]
            disps = [rows[p_idx].avg_total_displacement for rows, _ in results]
            highs = [rows[p_idx].high_energy_pct for rows, _ in results]
            out.append(
                MetricsRow(
                    scheme=scheme,
                    n=config.n,
                    trials=config.trials,
                    failure_fraction=point,
                    recovery_rate=float(np.mean(rates)),
                    avg_total_displacement=float(np.mean(disps)),
                    high_energy_pct=float(np.mean(highs)),
                )
            )
    return out


CSV_HEADER = "scheme,N,trials,failure_pct,recovery_rate,avg_total_displacement,high_energy_pct"


def rows_to_csv(rows: Sequence[MetricsRow], header: bool = True) -> str:
    lines = [CSV_HEADER] if header else []
    for r in rows:
        lines.append(
            f"{r.scheme},{r.n},{r.trials},{r.failure_fraction * 100:g},"
            f"{r.recovery_rate:.6f},{r.avg_total_displacement:.6f},"
            f"{r.high_energy_pct:.6f}"
        )
    return "\n".join(lines) + "\n"

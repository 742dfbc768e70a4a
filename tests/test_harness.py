from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrier_restore import core, graph, harness
from barrier_restore.cli import main
from barrier_restore.core import (
    MECH_NONE,
    PL,
    PR,
    Point,
    RestoreOutcome,
    seeded_rng,
)
from barrier_restore.graph import build_intersection_graph, find_barrier
from barrier_restore.harness import (
    EpisodeRecord,
    ExperimentConfig,
    InitialBarrierImpossible,
    deploy_with_barrier,
    generate_deployment,
    rows_to_csv,
    run_experiment,
    run_trial,
    trial_seed,
)
from conftest import drain
from oracles import (
    barrier_oracle,
    deployment_oracle,
    failure_order_replay,
    graph_index,
    replayed_chain,
    total_displacement,
    total_energy_spent,
    vertex_index_oracle,
)

FAST = dict(length=400.0, rho=30.0, sigma=6.0, trials=2)
# Sparse enough that every scheme leaves some chain failures unrepaired.
SPARSE = dict(FAST, length=1000.0)


def trial_world(scheme, cfg, seed):
    """The world a trial of ``scheme`` leaves: deployed here and handed to
    ``run_trial``, which changes it in place."""
    world = deploy_with_barrier(cfg, seed)
    run_trial(scheme, cfg, seed, world)
    return world


class TestGenerateDeployment:
    def test_zero_noise_exact_grid(self):
        cfg = ExperimentConfig(n=5, length=4000.0, sigma=0.0, trials=1)
        sensors = generate_deployment(cfg, seeded_rng(1))
        assert [s.pos.x for s in sensors] == [0, 1000, 2000, 3000, 4000]
        assert all(s.pos.y == cfg.width / 2 for s in sensors)
        assert all(s.energy == 100.0 and not s.failed for s in sensors)

    def test_offset_standard_deviation(self):
        cfg = ExperimentConfig(n=100_000, sigma=6.0, trials=1)
        sensors = generate_deployment(cfg, seeded_rng(2))
        spacing = cfg.length / (cfg.n - 1)
        dx = np.array([s.pos.x - i * spacing for i, s in enumerate(sensors)])
        assert 5.9 <= float(dx.std()) <= 6.1

    def test_y_clamped_to_belt(self):
        cfg = ExperimentConfig(n=2000, width=10.0, sigma=20.0, trials=1)
        sensors = generate_deployment(cfg, seeded_rng(3))
        assert all(0 <= s.pos.y <= 10 for s in sensors)

    def test_paper_scale_barrier_formation_rate(self):
        cfg = ExperimentConfig(n=140, trials=1)
        formed = 0
        for seed in range(100):
            sensors = generate_deployment(cfg, seeded_rng(seed))
            from barrier_restore.core import World

            w = World(cfg.region(), sensors)
            g = build_intersection_graph(w.sensors, w.region)
            if find_barrier(g) is not None:
                formed += 1
        assert formed >= 95

    def test_coordinates_are_plain_floats(self):
        # Not numpy scalars: every distance the schemes compute is float
        # arithmetic, on the same values.
        cfg = ExperimentConfig(n=60, length=1500.0, sigma=9.0, trials=1)
        deployed = deploy_with_barrier(cfg, seed=4).sensors.values()
        for sensors in (generate_deployment(cfg, seeded_rng(3)), deployed):
            for s in sensors:
                assert type(s.pos.x) is float and type(s.pos.y) is float

    @settings(max_examples=200, deadline=None)
    @example(seed=0, n=2, sigma=0.0, width=60.0, radii=(30.0, None), energy=100.0)
    @example(seed=1, n=50, sigma=1e4, width=7.5, radii=(12.5, 25.0), energy=0.0)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 200),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
           width=st.floats(1e-3, 1e4),
           radii=st.floats(1e-3, 1e4).flatmap(lambda rho: st.tuples(
               st.just(rho), st.one_of(st.none(), st.floats(2 * rho, 2e4)))),
           energy=st.floats(0.0, 1e6))
    def test_deployment_is_the_per_sensor_loop_bit_for_bit(
            self, seed, n, sigma, width, radii, energy):
        # repr writes each float's shortest round-trip form, so equal reprs
        # mean equal bits (the sign of zero included) and equal types. comm
        # is the default 2ρ or any radius from 2ρ up, as Region requires.
        rho, comm = radii
        cfg = ExperimentConfig(n=n, length=1500.0, width=width, rho=rho, comm=comm,
                               sigma=sigma, initial_energy=energy, trials=1)
        sensors = generate_deployment(cfg, seeded_rng(seed))
        assert repr(sensors) == repr(deployment_oracle(cfg, seeded_rng(seed)))
        for s in sensors:
            assert all(type(v) is float for v in (
                s.pos.x, s.pos.y, s.energy, s.initial_energy))

    def test_redraw_exhaustion_raises(self):
        cfg = ExperimentConfig(n=3, length=4000.0, rho=30.0, trials=1,
                               max_redraws=3)
        with pytest.raises(InitialBarrierImpossible):
            deploy_with_barrier(cfg, seed=0)


class TestRunTrial:
    def test_row_count_matches_report_points(self):
        cfg = ExperimentConfig(n=40, **FAST)
        res = run_trial("nmove", cfg, trial_seed(cfg, 0))
        assert len(res.rows) == len(cfg.report_points)
        assert [r.failure_fraction for r in res.rows] == list(cfg.report_points)

    def test_nmove_never_moves(self):
        cfg = ExperimentConfig(n=40, **FAST)
        res = run_trial("nmove", cfg, trial_seed(cfg, 1))
        assert all(r.avg_total_displacement == 0.0 for r in res.rows)
        assert all(ep.displacement == 0.0 for ep in res.episodes)

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_recovery_rate_formula(self, scheme):
        # Each report point's recovery rate is 100·y/x over its first x
        # episodes, and its displacement their left fold from 0.0 over x,
        # to the last bit. On this trial every scheme moves sensors, and
        # cmove and dmove lose some episodes.
        cfg = ExperimentConfig(n=40, **SPARSE)
        res = run_trial(scheme, cfg, trial_seed(cfg, 3))
        for row in res.rows:
            x = math.floor(row.failure_fraction * cfg.n)
            done = res.episodes[:x]
            moved = 0.0
            for ep in done:
                moved += ep.displacement
            y = len([ep for ep in done if ep.success])
            want = (100.0 * y / x, moved / x) if x else (100.0, 0.0)
            assert (row.recovery_rate, row.avg_total_displacement) == want

    def test_conservation_energy_equals_displacement(self):
        for scheme in ("rmove", "cmove", "dmove"):
            cfg = ExperimentConfig(n=40, **FAST)
            seed = trial_seed(cfg, 3)
            w = deploy_with_barrier(cfg, seed)
            res = run_trial(scheme, cfg, seed, w)
            spent = total_energy_spent(w)
            assert spent == pytest.approx(
                w.energy_model.cost_per_unit_displacement
                * total_displacement(w),
                abs=1e-6,
            )
            assert sum(ep.displacement for ep in res.episodes) == pytest.approx(
                total_displacement(w), abs=1e-6
            )
            last = res.rows[-1]
            assert last.avg_total_displacement * math.floor(
                cfg.failure_fraction_max * cfg.n
            ) == pytest.approx(spent, abs=1e-6)

    def test_offchain_failures_recover_trivially(self):
        cfg = ExperimentConfig(n=40, **FAST)
        res = run_trial("cmove", cfg, trial_seed(cfg, 4))
        for ep in res.episodes:
            if not ep.on_barrier and ep.mechanism == "none" and ep.success:
                assert ep.displacement == 0.0

    # sha256 of repr of every scheme's per-trial rows on three trials at
    # N=140. The CSV prints 6 decimals; this pins each row's floats to the
    # last bit.
    TRIAL_ROWS_SHA256 = "66e7254e64a6377d6acd39ce45a611b424f93c1df01b9068a2a853c9f6c1f394"

    def test_per_trial_rows_are_pinned(self):
        cfg = ExperimentConfig(n=140, trials=3, seed=0)
        rows = [run_trial(s, cfg, trial_seed(cfg, t)).rows
                for s in harness.SCHEMES for t in range(3)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.TRIAL_ROWS_SHA256

    def test_same_seed_same_trial(self):
        cfg = ExperimentConfig(n=40, **FAST)
        a = run_trial("rmove", cfg, trial_seed(cfg, 5))
        b = run_trial("rmove", cfg, trial_seed(cfg, 5))
        assert a.rows == b.rows

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_sensors_loaded_below_the_threshold_never_move(self, scheme):
        # Energy 5 is below the default static threshold of 10, though it
        # pays for short moves: on this trial rmove and dmove would each
        # move a sensor if only the budget counted.
        cfg = ExperimentConfig(n=160, initial_energy=5.0)
        seed = trial_seed(cfg, 0)
        world = deploy_with_barrier(cfg, seed)
        res = run_trial(scheme, cfg, seed, world)
        assert all(m.length == 0.0 for m in world.changes)
        assert all(ep.displacement == 0.0 for ep in res.episodes)


@pytest.mark.parametrize("n", [140, 180])
def test_every_scheme_fails_the_same_sensors(n):
    # Common random numbers: every scheme replays the same failure order,
    # and it is the order of drawing uniformly from the live ids, in id
    # order, of a twin world that fails the same ids and never moves.
    cfg = ExperimentConfig(n=n)
    for t in range(3):
        seed = trial_seed(cfg, t)
        runs = {s: [ep.failed for ep in run_trial(s, cfg, seed).episodes]
                for s in harness.SCHEMES}
        replay = failure_order_replay(deploy_with_barrier(cfg, seed), seed,
                                      math.floor(cfg.failure_fraction_max * n))
        assert all(failed == replay for failed in runs.values()), (n, t)


@settings(max_examples=60, deadline=None)
@example(seed=0, n=300, fraction=0.003)  # no failure at all
@example(seed=1, n=300, fraction=1.0)  # every sensor fails
@example(seed=2**64 - 1, n=2, fraction=1.0)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 300),
       fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
def test_failure_order_is_the_scalar_replay(seed, n, fraction):
    # The trial draws its whole failure order in one numpy call; that it
    # equals one scalar draw per episode rests on how numpy bounds each
    # element of an array of bounds, which this pins for any numpy version.
    # Sensors one radius apart with no noise always form a barrier.
    cfg = ExperimentConfig(n=n, length=30.0 * (n - 1), rho=30.0, sigma=0.0,
                           failure_fraction_max=fraction, report_points=(fraction,))
    world = deploy_with_barrier(cfg, seed)
    replay = failure_order_replay(world.copy(), seed, math.floor(fraction * n))
    assert [ep.failed for ep in run_trial("nmove", cfg, seed, world).episodes] == replay


def _checked_steps(monkeypatch, extra=None):
    """Wrap the step that ``start_scheme`` returns so that each call, after
    the step and ``extra(world, failed_id, outcome)`` (which may change the
    world and returns the outcome to report), appends the pairwise verdict,
    ``barrier_oracle(world)``, to the returned list."""
    verdicts = []
    original = harness.start_scheme

    def start(scheme, world, *args, **kwargs):
        step = original(scheme, world, *args, **kwargs)

        def checked(failed_id):
            outcome = step(failed_id)
            if extra is not None:
                outcome = extra(world, failed_id, outcome)
            verdicts.append(barrier_oracle(world))
            return outcome
        return checked

    monkeypatch.setattr(harness, "start_scheme", start)
    return verdicts


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_episode_success_is_the_verdict_after_the_step(monkeypatch, scheme):
    # run_trial verifies once after every step, and each verdict reads what
    # a full check reads.
    verdicts = _checked_steps(monkeypatch)
    calls = Counter()

    def counted(world):
        calls["verify"] += 1
        return graph.verify_barrier(world)

    monkeypatch.setattr(harness, "verify_barrier", counted)
    cfg = ExperimentConfig(n=40, **SPARSE)
    for t in range(4):
        verdicts.clear()
        calls.clear()
        episodes = run_trial(scheme, cfg, trial_seed(cfg, t)).episodes
        assert [ep.success for ep in episodes] == verdicts
        assert len(verdicts) == math.floor(cfg.failure_fraction_max * cfg.n)
        assert calls["verify"] == len(episodes)


def test_verdict_is_retaken_after_a_new_chain_or_a_move(monkeypatch):
    # No scheme replaces the chain or moves a sensor after a failure off the
    # chain, so this step does it itself: in turn it designates a fresh
    # minimum-hop barrier, drags a chain member out of reach of its chain
    # neighbors, designates a fresh barrier again and reverses the chain.
    turns = Counter()

    def meddle(world, failed_id, outcome):
        # nmove left the chain as it was iff its mechanism is "none"; act
        # only when the victim was not on it.
        if outcome.mechanism != MECH_NONE or failed_id in world.barrier:
            return outcome
        turn = turns["off"] % 4
        turns["off"] += 1
        turns[turn] += 1
        if turn in (0, 2):
            chain = find_barrier(world.graph) or world.barrier
            world.edit_chain(0, len(world.barrier), chain)
        elif turn == 3:
            world.edit_chain(0, len(world.barrier), world.barrier[::-1])
        else:
            start = len(world.changes)
            for sid in world.barrier:
                s = world.sensors[sid]
                dest = Point(s.pos.x, s.pos.y + 3 * world.region.rho)
                if world.affords(s, s.pos.distance_to(dest)):
                    world.apply_move(sid, dest)
                    break
            outcome = RestoreOutcome(outcome.mechanism, world.changes[start:])
        return outcome

    verdicts = _checked_steps(monkeypatch, meddle)
    cfg = ExperimentConfig(n=40, **SPARSE)
    flips = 0
    for t in range(4):
        verdicts.clear()
        episodes = run_trial("nmove", cfg, trial_seed(cfg, t)).episodes
        assert [ep.success for ep in episodes] == verdicts
        flips += sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert min(turns[k] for k in range(4)) > 0 and flips > 0


@pytest.mark.parametrize("n", [140, 160, 180])
def test_every_verdict_matches_the_oracle_at_full_size(monkeypatch, n):
    # The hypothesis state machine reaches 6-14 sensors; here every verdict
    # that a trial takes on the paper's sizes, on the deployed world and on
    # its copies, is asked of the pairwise definition too. And the chain
    # edits recorded since the world's last verdict turn the chain it had
    # then into the chain it has now.
    verdicts = Counter()
    last = {}  # world -> (its chain, len(world.chain_edits)) at its last verdict

    def checked(world):
        if world in last:
            chain, mark = last[world]
            assert replayed_chain(chain, world.chain_edits[mark:]) == world.barrier
        last[world] = list(world.barrier), len(world.chain_edits)
        holds = graph.verify_barrier(world)
        assert holds == barrier_oracle(world)
        verdicts[holds] += 1
        return holds

    monkeypatch.setattr(harness, "verify_barrier", checked)
    run_experiment(ExperimentConfig(n, seed=0, trials=3))
    assert verdicts[True] > 0 and verdicts[False] > 0


def _world_state(world):
    """Everything a step can change or read, as comparable values, after
    checking that the graph reads the world's own sensors and indexes the
    live ones as a fresh sort does."""
    g = world.graph
    assert g.sensors is world.sensors
    assert graph_index(g) == vertex_index_oracle(world.sensors)
    return dict(
        sensors=list(world.sensors.values()),
        chain=world.barrier,
        slots=world.slots,
        holes=world.holes,
        broken=world.broken,
        changes=world.changes,
        chain_edits=world.chain_edits,
        adjacency=g.adjacency,
        xs=g._xs,
        ids=g._ids,
        # The positions the graph reads, in its x order.
        read=[g.sensors[v].pos for v in g._ids],
    )


COPY_CONFIGS = [ExperimentConfig(n=40, **FAST), ExperimentConfig(n=160, trials=2)]


@pytest.mark.parametrize("cfg", COPY_CONFIGS, ids=lambda cfg: f"n{cfg.n}")
class TestWorldCopy:
    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_trial_on_a_copy_equals_a_fresh_trial(self, cfg, scheme):
        for t in range(cfg.trials):
            seed = trial_seed(cfg, t)
            source = deploy_with_barrier(cfg, seed)
            copy = source.copy()
            assert not set(map(id, copy.sensors.values())) & set(
                map(id, source.sensors.values()))
            on_copy = run_trial(scheme, cfg, seed, copy)
            fresh_world = deploy_with_barrier(cfg, seed)
            fresh = run_trial(scheme, cfg, seed, fresh_world)
            assert on_copy.rows == fresh.rows
            assert on_copy.episodes == fresh.episodes
            assert _world_state(copy) == _world_state(fresh_world)
            # The source is still the deployment, as a second deploy draws it.
            assert _world_state(source) == _world_state(deploy_with_barrier(cfg, seed))

    def test_graph_copy_equals_a_fresh_build(self, cfg):
        # On the deployed world and on one that failures and moves changed.
        seed = trial_seed(cfg, 0)
        for world in (deploy_with_barrier(cfg, seed),
                      trial_world("cmove", cfg, seed)):
            copy = world.graph.copy(world.sensors)
            built = build_intersection_graph(world.sensors, world.region)
            assert copy.adjacency == built.adjacency
            assert copy.sensors is built.sensors is world.sensors
            assert graph_index(copy) == graph_index(built) == vertex_index_oracle(world.sensors)
            assert copy.window(-math.inf, math.inf) == built.window(-math.inf, math.inf)
            assert copy.adjacency is not world.graph.adjacency
            assert all(copy.adjacency[v] is not row
                       for v, row in world.graph.adjacency.items())


@pytest.mark.parametrize("scheme", ["nmove", "rmove"])
def test_copy_of_a_changed_world_equals_it(scheme):
    # After a trial that left failed members on the chain: the copy keeps
    # the holes, the broken links and both records, and its verdict is its
    # source's. A chain member failed on the copy is a hole of the copy
    # alone.
    cfg = ExperimentConfig(n=160, trials=1)
    world = trial_world(scheme, cfg, trial_seed(cfg, 0))
    assert world.holes and len(world.chain_edits) > 1
    copy = world.copy()
    assert _world_state(copy) == _world_state(world)
    assert copy.changes is not world.changes
    assert graph.verify_barrier(copy) == graph.verify_barrier(world)
    holes, broken = set(world.holes), dict(world.broken)
    member = next(sid for sid in copy.barrier if sid not in copy.holes)
    copy.fail(member)
    assert copy.holes == holes | {member} and member in copy.broken
    assert world.holes == holes and world.broken == broken


def _graph_answers(g, probes):
    """What the reads of graph ``g`` answer: its rows, its vertex set and
    x-order index, ``near`` at each probe, and ``distance_to`` from every
    sensor vertex to each of its neighbours and to both sentinels."""
    return dict(
        rows=g.adjacency,
        index=graph_index(g),
        near=[g.near(p) for p in probes],
        dist=[(v, t, g.distance_to(v, t)) for v in sorted(set(g.adjacency) - {PL, PR})
              for t in (*g.adjacency[v], PL, PR)],
    )


def test_a_copy_shares_no_position():
    # A world's graph reads positions from the world's sensors, so a
    # twin's graph must read the twin's: moves and failures on either world
    # leave the other's graph answering as a fresh build over its own
    # sensors does, and the changed world's too.
    cfg = ExperimentConfig(n=40, **FAST)
    source = deploy_with_barrier(cfg, trial_seed(cfg, 0))
    twin = source.copy()
    assert twin.graph.sensors is twin.sensors
    assert source.graph.sensors is source.sensors
    rng = np.random.default_rng(5)
    for changed in (twin, source, twin):
        live = changed.active_sensors()
        for i in rng.choice(len(live), size=12, replace=False).tolist():
            s = live[i]
            if i % 4 == 0:
                changed.fail(s.id)
            else:
                dx, dy = rng.uniform(-40.0, 40.0, size=2).tolist()
                dest = Point(s.pos.x + dx, min(max(s.pos.y + dy, 0.0), cfg.width))
                if changed.affords(s, s.pos.distance_to(dest)):
                    changed.apply_move(s.id, dest)
        assert _world_state(twin) != _world_state(source)
        probes = [s.pos for w in (source, twin) for s in w.sensors.values()]
        corners = ((0.0, 0.0), (cfg.length, cfg.width))
        probes += [Point(*xy) for xy in rng.uniform(*corners, size=(20, 2)).tolist()]
        for world in (source, twin):
            fresh = build_intersection_graph(world.sensors, world.region)
            assert _graph_answers(world.graph, probes) == _graph_answers(fresh, probes)


class TestReportRows:
    CFG = ExperimentConfig(n=10, length=100.0, rho=30.0, sigma=0.0, trials=1,
                           report_points=(0.0, 0.1))

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_no_failures(self, scheme):
        row = run_trial(scheme, self.CFG, trial_seed(self.CFG, 0)).rows[0]
        assert row.failure_fraction == 0.0
        assert (row.recovery_rate, row.avg_total_displacement,
                row.high_energy_pct) == (100.0, 0.0, 100.0)

    def test_zero_recoveries(self):
        # nmove loses its chain at the first failure of this trial and
        # never finds another.
        cfg = ExperimentConfig(n=40, **SPARSE)
        res = run_trial("nmove", cfg, trial_seed(cfg, 13))
        assert [row.recovery_rate for row in res.rows] == [0.0] * len(cfg.report_points)

    def test_high_energy_threshold_is_strict(self):
        # Drained to exactly 90% of the initial energy a sensor no longer
        # counts; one float above it still does.
        cfg = self.CFG
        seed = trial_seed(cfg, 0)
        world = deploy_with_barrier(cfg, seed)
        at, above = world.barrier[:2]
        drain(world, at, 0.9 * cfg.initial_energy)
        drain(world, above, math.nextafter(0.9 * cfg.initial_energy, math.inf))
        row = run_trial("nmove", cfg, seed, world).rows[0]
        assert row.high_energy_pct == 100.0 * 9 / 10


def _stub_pool(monkeypatch):
    """Swap the process pool for one that maps in this process; returns the
    worker count of every pool started and every task result it mapped."""
    started, returned = [], []

    class Pool:
        def __init__(self, max_workers, mp_context=None, initializer=None):
            started.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            results = [fn(task) for task in tasks]
            returned.extend(results)
            return results

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return started, returned


class TestRunExperiment:
    def test_single_trial_equals_aggregation(self):
        cfg = ExperimentConfig(n=40, length=400.0, rho=30.0, trials=1,
                               schemes=("nmove",), seed=9)
        rows = run_experiment(cfg)
        single = run_trial("nmove", cfg, trial_seed(cfg, 0)).rows
        for got, want in zip(rows, single):
            assert got.recovery_rate == pytest.approx(want.recovery_rate)
            assert got.avg_total_displacement == pytest.approx(
                want.avg_total_displacement
            )
        assert all(r.trials == 1 for r in rows)

    def test_master_seed_changes_results(self):
        base = dict(n=40, length=400.0, rho=30.0, trials=3, schemes=("rmove",))
        a = run_experiment(ExperimentConfig(seed=1, **base))
        b = run_experiment(ExperimentConfig(seed=2, **base))
        assert a != b

    def test_csv_deterministic_and_job_invariant(self):
        cfg = ExperimentConfig(n=40, length=400.0, rho=30.0, trials=3, seed=4)
        a = rows_to_csv(run_experiment(cfg, jobs=1))
        b = rows_to_csv(run_experiment(cfg, jobs=4))
        c = rows_to_csv(run_experiment(cfg, jobs=1))
        assert a == b == c

    def test_shared_seed_dominance_of_cmove_over_nmove(self):
        cfg = ExperimentConfig(n=40, length=400.0, rho=30.0, trials=6, seed=6,
                               schemes=("nmove", "cmove"))
        rows = run_experiment(cfg)
        n_rows = [r for r in rows if r.scheme == "nmove"]
        c_rows = [r for r in rows if r.scheme == "cmove"]
        for nr, cr in zip(n_rows, c_rows):
            assert nr.recovery_rate <= cr.recovery_rate + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, failure_fraction_max=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, report_points=(0.2, 0.1))
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, schemes=("zmove",))

    @pytest.mark.parametrize("bad", [
        dict(report_points=(0.1, 0.35)),
        dict(report_points=(-0.05, 0.1)),
        dict(trials=0),
        dict(rho=0.0),
        dict(rho=math.nan),
        dict(sigma=-1.0),
        dict(width=0.0),
        dict(length=-4000.0),
        dict(initial_energy=-1.0),
        dict(comm=0.0),
        dict(cost_per_unit=0.0),
        dict(cost_per_unit=math.nan),
        dict(static_threshold=math.nan),
        dict(max_redraws=0),
        dict(trials="3"),
        dict(rho="30"),
        dict(k_hop_budget=2.5),
        dict(k_hop_budget=-4),
        dict(report_points=("0.1",)),
        dict(seed=-1),
        dict(trials=True),
        dict(rho=True),
        dict(k_hop_budget=True),
        dict(report_points=(False, 0.1)),
        dict(report_points=(0.1, 0.1)),
        # Distinct points whose percentages print alike in the CSV.
        dict(report_points=(0.1, 0.1000001)),
        dict(report_points=(0.05, 0.2999999, 0.3)),
        dict(schemes=("dmove", "dmove")),
        *(dict([(name, math.inf)]) for name in (
            "length", "width", "rho", "comm", "sigma", "initial_energy",
            "cost_per_unit", "static_threshold")),
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_config_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(n=40, **bad)

    def test_pool_never_exceeds_task_count(self, monkeypatch):
        started, _ = _stub_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        cfg = ExperimentConfig(n=40, **FAST, schemes=("nmove",))  # two tasks
        serial = run_experiment(cfg, jobs=1)
        assert started == []
        assert run_experiment(cfg, jobs=8) == serial
        assert started == [2]

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, cpus, pools):
        # The pool starts every worker at once, so jobs beyond the CPUs
        # (one CPU when the count is unknown) only add processes.
        started, _ = _stub_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = ExperimentConfig(n=40, **dict(FAST, trials=5), schemes=("nmove",))
        serial = run_experiment(cfg, jobs=1)
        assert run_experiment(cfg, jobs=5000) == serial
        assert started == pools

    def test_one_deploy_per_trial(self, monkeypatch):
        # Every scheme of a trial runs on a copy of the one deployed world.
        _stub_pool(monkeypatch)
        deploys = Counter()
        original = harness.deploy_with_barrier

        def counting(config, seed):
            deploys[seed] += 1
            return original(config, seed)

        monkeypatch.setattr(harness, "deploy_with_barrier", counting)
        cfg = ExperimentConfig(n=40, **FAST)
        for jobs in (1, 2):
            deploys.clear()
            run_experiment(cfg, jobs=jobs)
            assert deploys == {trial_seed(cfg, t): 1 for t in range(cfg.trials)}

    def test_episodes_cross_the_pool_only_for_a_detail_sink(self, monkeypatch):
        _, returned = _stub_pool(monkeypatch)
        cfg = ExperimentConfig(n=40, **FAST)

        def episodes_returned():
            return sum(isinstance(ep, EpisodeRecord)
                       for trial in returned for _, episodes in trial
                       for ep in episodes)

        run_experiment(cfg, jobs=2)
        assert len(returned) == cfg.trials and episodes_returned() == 0
        returned.clear()
        run_experiment(cfg, jobs=2, detail_sink=io.StringIO())
        assert episodes_returned() == (len(cfg.schemes) * cfg.trials
                                       * math.floor(cfg.failure_fraction_max * cfg.n))

    def test_report_point_at_failure_fraction_max_is_reported(self):
        cfg = ExperimentConfig(n=40, length=400.0, rho=30.0, trials=1,
                               failure_fraction_max=0.2,
                               report_points=(0.1, 0.2), schemes=("nmove",))
        rows = run_experiment(cfg)
        assert [r.failure_fraction for r in rows] == [0.1, 0.2]


DETAIL_KEYS = ["episode", "failed", "on_barrier", "mechanism", "success",
               "displacement", "scheme", "n", "trial_seed"]


def test_detail_log_through_sweep(tmp_path):
    # Energy 3 cannot pay a ~10-unit hop, so rmove has episodes that move
    # nothing; their displacement must still be written as a float.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_energy": 3.0}))
    args = ["sweep", "--config", str(cfg), "--n-list", "40", "--trials", "2",
            "--length", "400", "--rho", "30", "--seed", "1"]
    logs = []
    for jobs in (1, 2):
        log = tmp_path / f"detail{jobs}.jsonl"
        assert main(args + ["--jobs", str(jobs), "--out", str(tmp_path / "out.csv"),
                            "--detail-log", str(log)]) == 0
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]
    docs = [json.loads(line) for line in logs[0].decode().splitlines()]
    assert len(docs) == 4 * 2 * math.floor(0.3 * 40)
    assert all(list(doc) == DETAIL_KEYS for doc in docs)
    assert all(type(doc["displacement"]) is float for doc in docs)
    assert any(doc["scheme"] == "rmove" and doc["mechanism"] == "none" for doc in docs)


RESTORE_STEPS = {
    "nmove": "restore_nmove",
    "cmove": "restore_cmove",
    "rmove": "restore_rmove",
    "dmove": "handle_failure_dmove",
}


def test_trial_looks_up_entry_points_at_call_time(monkeypatch):
    # A tracer rebinds these names on the harness module; a trial must call
    # through them, not through references taken at import time.
    calls = Counter()

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in (*RESTORE_STEPS.values(), "init_recovery_nodes"):
        monkeypatch.setattr(harness, name, counting(name))
    cfg = ExperimentConfig(n=40, **FAST)
    for scheme, step in RESTORE_STEPS.items():
        calls.clear()
        res = run_trial(scheme, cfg, trial_seed(cfg, 3))
        want = {step: len(res.episodes)}
        if scheme == "dmove":
            # Re-elections after a repair go through distributed's binding.
            want["init_recovery_nodes"] = 1
        assert dict(calls) == want


def test_one_graph_per_world(monkeypatch):
    # Every scheme reads the world's one graph, which the world builds when
    # it is constructed on the deploy path (no redraw happens on this belt),
    # so a trial builds one graph. So does a trial task running all four
    # schemes: three run on copies of the deployed world, which copy its
    # graph and build none.
    builds = Counter()
    original = core.build_intersection_graph

    def counting(*args, **kwargs):
        builds["graph"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "build_intersection_graph", counting)
    cfg = ExperimentConfig(n=40, **FAST)
    seed = trial_seed(cfg, 3)
    for scheme in harness.SCHEMES:
        builds.clear()
        trial_world(scheme, cfg, seed)
        assert builds["graph"] == 1, scheme
    builds.clear()
    assert len(harness._trial_task((cfg, seed, False))) == len(harness.SCHEMES)
    assert builds["graph"] == 1


def test_an_unknown_scheme_is_rejected():
    world = deploy_with_barrier(ExperimentConfig(n=40, **FAST), 0)
    with pytest.raises(ValueError, match="unknown scheme 'xmove'"):
        harness.start_scheme("xmove", world, seeded_rng(0))


# Which of the process pool's modules a fresh interpreter holds after each
# step: importing the package, a generate, a serial trial, then a parallel
# experiment (on two CPUs, whatever the machine has).
POOL_PROBE = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.startswith("multiprocessing") or m == "concurrent.futures.process")

loaded = {}
from barrier_restore import cli, harness
loaded["import"] = pool_modules()
assert cli.main(["generate", "--n", "40", "--length", "400", "--seed", "1",
                 "--out", sys.argv[2]]) == 0
loaded["generate"] = pool_modules()
config = harness.ExperimentConfig(n=40, length=400.0, trials=2, schemes=("nmove",))
harness.run_trial("dmove", config, harness.trial_seed(config, 0))
loaded["serial trial"] = pool_modules()
os.cpu_count = lambda: 2
harness.run_experiment(config, jobs=2)
loaded["parallel experiment"] = pool_modules()
print(json.dumps(loaded))
"""


def test_only_a_parallel_run_loads_the_process_pool(tmp_path):
    src = Path(harness.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(src), str(tmp_path / "d.json")],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    for step in ("import", "generate", "serial trial"):
        assert loaded[step] == [], step
    assert "concurrent.futures.process" in loaded["parallel experiment"]
    assert "multiprocessing" in loaded["parallel experiment"]


# The worker pids alive after each step in a fresh interpreter on three
# CPUs (whatever the machine has), where a DeprecationWarning is an error
# as in the suite, so a fork beside a live pool thread fails from Python
# 3.12 on: two runs on two workers, one on three, one whose size forms no
# barrier, then a serial and a parallel run of the same config. The pool
# still alive at exit must end without a word on stderr.
REUSE_PROBE = r"""
import json, multiprocessing, os, sys
sys.path.insert(0, sys.argv[1])
from barrier_restore import harness

def alive():
    return sorted(p.pid for p in multiprocessing.active_children())

os.cpu_count = lambda: 3
config = harness.ExperimentConfig(n=40, length=400.0, trials=3, schemes=("nmove",))
steps = {}
for step, jobs in (("two", 2), ("two again", 2), ("three", 3)):
    harness.run_experiment(config, jobs=jobs)
    steps[step] = alive()
no_barrier = harness.ExperimentConfig(n=3, length=100000.0, trials=2, max_redraws=1)
try:
    harness.run_experiment(no_barrier, jobs=2)
except harness.InitialBarrierImpossible:
    steps["failed"] = alive()
serial = harness.rows_to_csv(harness.run_experiment(config))
steps["same bytes"] = harness.rows_to_csv(harness.run_experiment(config, jobs=2)) == serial
steps["after"] = alive()
print(json.dumps(steps))
"""


def test_parallel_runs_reuse_one_pool():
    src = Path(harness.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", REUSE_PROBE, str(src)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    steps = json.loads(run.stdout)
    assert len(steps["two"]) == 2 and steps["two again"] == steps["two"]
    assert len(steps["three"]) == 3 and not set(steps["three"]) & set(steps["two"])
    assert steps["failed"] == []
    assert steps["same bytes"] is True
    assert len(steps["after"]) == 2
    for pid in {*steps["two"], *steps["three"], *steps["after"]}:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# A fresh interpreter that sets the given start method (keeps its default
# when empty), starts two workers, writes each worker's pid and start time
# to a file (not to stdout, which the workers share and would hold open)
# and kills itself. The pool forks under every start method; a worker
# started by a fork server would be that server's child, and the server
# lives as long as any of its clients, the workers included.
ORPHAN_PROBE = r"""
import multiprocessing, os, signal, sys
sys.path.insert(0, sys.argv[1])
from barrier_restore import harness

if sys.argv[3]:
    multiprocessing.set_start_method(sys.argv[3])
os.cpu_count = lambda: 2
config = harness.ExperimentConfig(n=40, length=400.0, trials=2, schemes=("nmove",))
harness.run_experiment(config, jobs=2)
with open(sys.argv[2], "w") as out:
    for worker in multiprocessing.active_children():
        stat = open(f"/proc/{worker.pid}/stat").read()
        out.write(f"{worker.pid} {stat[stat.rindex(')') + 2:].split()[19]}\n")
os.kill(os.getpid(), signal.SIGKILL)
"""


def _stat(pid):
    """The state and the start time of ``pid`` from ``/proc/<pid>/stat``,
    or None when there is no such process."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], fields[19]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("method", ["", "forkserver"], ids=["default", "forkserver"])
def test_workers_end_when_their_parent_is_killed(tmp_path, method):
    src = Path(harness.__file__).resolve().parent.parent
    pids, err = tmp_path / "pids", tmp_path / "stderr"
    with err.open("w") as stderr:
        run = subprocess.run([sys.executable, "-c", ORPHAN_PROBE, str(src), str(pids), method],
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                             stderr=stderr, timeout=60)
    assert run.returncode == -signal.SIGKILL, err.read_text()
    # A worker is identified by its pid and the start time the probe read
    # while it lived, so a pid reused since is never taken for it.
    started = dict(line.split() for line in pids.read_text().splitlines())
    assert len(started) == 2

    def running():
        # The same process, not yet dead: a zombie waits only to be reaped.
        return [int(pid) for pid, first in started.items()
                if (now := _stat(pid)) and now[1] == first and now[0] != "Z"]

    deadline = time.monotonic() + 10
    while running() and time.monotonic() < deadline:
        time.sleep(0.05)
    left = running()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []

"""Command-line entry point.

Subcommands:
  generate  write a deployment JSON
  run       replay one failure scenario against a deployment (debugger)
  sweep     full experiment grid, CSV on stdout

Exit codes: 0 ran, 2 usage error (a bad deployment file, a bad output
path, two of ``sweep --config``, ``--out`` and ``--detail-log`` naming one
file, a repeated ``run --fail`` id, a repeated ``sweep`` scheme, size or
report point (two points whose percentages print alike included), an
empty ``sweep --schemes``, a negative seed, a non-finite number of any
subcommand and a ``generate`` draw that overflows to one included), 3
no initial barrier, 4 several ``run --fail`` ids for a local scheme (rmove
or dmove), which handles one failure at a time. Stdout carries only data;
diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .core import EnergyModel, World, seeded_rng, world_from_json, world_to_json
from .distributed import MessageBus
from .graph import find_barrier, verify_barrier, world_graph
from .harness import (
    SCHEMES,
    ExperimentConfig,
    InitialBarrierImpossible,
    generate_deployment,
    rows_to_csv,
    run_experiment,
    start_scheme,
)

EXIT_USAGE = 2
EXIT_NO_BARRIER = 3
EXIT_MULTI_FAILURE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrier-restore",
        description="Simulate and evaluate barrier-coverage restoration schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deployment JSON")
    gen.add_argument("--n", type=int, required=True, help="number of sensors")
    gen.add_argument("--length", type=float, default=ExperimentConfig.length,
                     help="belt length (default %(default)s)")
    gen.add_argument("--width", type=float, default=ExperimentConfig.width,
                     help="belt width (default %(default)s)")
    gen.add_argument("--rho", type=float, default=ExperimentConfig.rho,
                     help="sensing radius (default %(default)s)")
    gen.add_argument("--comm", type=float, default=None, help="communication radius (default 2*rho)")
    gen.add_argument("--sigma", type=float, default=ExperimentConfig.sigma,
                     help="placement error stddev (default %(default)s)")
    gen.add_argument("--energy", type=float, default=ExperimentConfig.initial_energy,
                     help="initial energy (default %(default)s)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    run = sub.add_parser("run", help="run one failure scenario against a deployment")
    run.add_argument("--deployment", type=Path, required=True)
    run.add_argument("--scheme", choices=SCHEMES, required=True)
    run.add_argument("--fail", required=True, help="failed sensor id(s), comma separated")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--k", type=int, default=None, help="hop budget for detour search")
    run.add_argument("--cost-per-unit", type=float, default=EnergyModel.cost_per_unit_displacement,
                     help="energy per unit of displacement (default %(default)s)")
    run.add_argument("--static-threshold", type=float, default=EnergyModel.static_threshold,
                     help="energy below which a sensor stops moving (default %(default)s)")
    run.add_argument("--trace", action="store_true", help="print protocol trace to stderr")

    sweep = sub.add_parser("sweep", help="experiment grid, CSV output")
    sweep.add_argument("--schemes", default=None, help="comma list (default all four)")
    sweep.add_argument("--n-list", default=None, help="comma list of deployment sizes")
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--length", type=float, default=None)
    sweep.add_argument("--width", type=float, default=None)
    sweep.add_argument("--rho", type=float, default=None)
    sweep.add_argument("--sigma", type=float, default=None)
    sweep.add_argument("--jobs", type=int, default=1, help="trial-level parallelism")
    sweep.add_argument("--config", type=Path, default=None, help="JSON config file; flags override")
    sweep.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    sweep.add_argument("--detail-log", type=Path, default=None,
                       help="write one JSON line per failure episode")
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        config = ExperimentConfig(n=args.n, length=args.length, width=args.width, rho=args.rho,
                                  comm=args.comm, sigma=args.sigma, initial_energy=args.energy,
                                  seed=args.seed)
        sensors = generate_deployment(config, seeded_rng(config.seed))
        text = world_to_json(World(config.region(), sensors))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is None:
        print(text)
        return 0
    try:
        args.out.write_text(text + "\n")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        failed_ids = [int(tok) for tok in args.fail.split(",") if tok != ""]
    except ValueError:
        print(f"error: --fail expects integer ids, got {args.fail!r}", file=sys.stderr)
        return EXIT_USAGE
    if not failed_ids:
        print("error: --fail lists no ids", file=sys.stderr)
        return EXIT_USAGE
    if len(set(failed_ids)) < len(failed_ids):
        print(f"error: --fail repeats an id: {args.fail!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.scheme in ("rmove", "dmove") and len(failed_ids) > 1:
        print(f"error: {args.scheme} handles failures one at a time", file=sys.stderr)
        return EXIT_MULTI_FAILURE

    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    try:
        model = EnergyModel(args.cost_per_unit, args.static_threshold)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        world = world_from_json(args.deployment.read_text(), energy_model=model)
    except (OSError, ValueError) as err:
        print(f"error: deployment {args.deployment}: {err}", file=sys.stderr)
        return EXIT_USAGE
    for sid in failed_ids:
        if sid not in world.sensors:
            print(f"error: sensor {sid} not in deployment", file=sys.stderr)
            return EXIT_USAGE

    barrier = find_barrier(world_graph(world))
    if barrier is None:
        print("error: deployment forms no initial barrier", file=sys.stderr)
        return EXIT_NO_BARRIER
    world.edit_chain(0, len(world.barrier), barrier)

    bus = MessageBus(keep_log=args.trace)
    try:
        restore = start_scheme(args.scheme, world, seeded_rng(args.seed),
                               k=args.k, bus=bus)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    for sid in failed_ids:
        world.fail(sid)
    # One centralized step covers every failed chain member; the local
    # schemes were limited to a single id above.
    edits = len(world.chain_edits)
    outcome = restore(failed_ids[0])

    doc = {
        "success": verify_barrier(world),
        "mechanism": outcome.mechanism,
        "moves": [
            {"id": sid, "from": [a.x, a.y], "to": [b.x, b.y]}
            for sid, a, b in outcome.moves
        ],
        "total_displacement": outcome.total_displacement,
        "new_barrier": world.barrier if len(world.chain_edits) > edits else None,
        "scheme": args.scheme,
        "failed": failed_ids,
    }
    print(json.dumps(doc, indent=2))
    if args.trace:
        sys.stderr.write(bus.log_csv())
    return 0


def _sweep_config(args: argparse.Namespace, n: int) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        base = json.loads(args.config.read_text())
        if not isinstance(base, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        for key in ("schemes", "report_points"):
            if key in base and not isinstance(base[key], list):
                raise ValueError(f"config {args.config}: {key} must be a JSON list")
        base.pop("n", None)
    overrides = {
        "schemes": tuple(args.schemes.split(",")) if args.schemes is not None else None,
        "trials": args.trials,
        "seed": args.seed,
        "length": args.length,
        "width": args.width,
        "rho": args.rho,
        "sigma": args.sigma,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if "schemes" in base:
        base["schemes"] = tuple(base["schemes"])
    if "report_points" in base:
        base["report_points"] = tuple(base["report_points"])
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(base) - known
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    return ExperimentConfig(n=n, **base)


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.n_list:
        print("error: --n-list is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        n_values = [int(tok) for tok in args.n_list.split(",") if tok != ""]
    except ValueError:
        print(f"error: --n-list expects integers, got {args.n_list!r}", file=sys.stderr)
        return EXIT_USAGE
    if not n_values:
        print("error: --n-list lists no sizes", file=sys.stderr)
        return EXIT_USAGE
    if len(set(n_values)) < len(n_values):
        print(f"error: --n-list repeats a size: {args.n_list!r}", file=sys.stderr)
        return EXIT_USAGE

    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    named = [path.resolve() for path in (args.config, args.out, args.detail_log)
             if path is not None]
    if len(set(named)) < len(named):
        print("error: --config, --out and --detail-log must name different files",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        configs = [_sweep_config(args, n) for n in n_values]
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    # Both files are opened before any trial runs, so a bad path fails at
    # once. --out is opened for append, so an existing file keeps its bytes
    # until every size has run and the CSV replaces them. A failed sweep
    # removes the detail log and an --out file it created itself.
    out = detail = None
    out_created = False
    try:
        if args.out is not None:
            out_created = not args.out.exists()
            out = args.out.open("a")
        if args.detail_log is not None:
            detail = args.detail_log.open("w")
    except OSError as err:
        _close_outputs(args, out, out_created, detail, ok=False)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    ok = False
    try:
        rows = [
            row
            for config in configs
            for row in run_experiment(config, jobs=args.jobs, detail_sink=detail)
        ]
        text = rows_to_csv(rows)
        if out is None:
            sys.stdout.write(text)
        else:
            out.truncate(0)
            out.write(text)
        ok = True
    except InitialBarrierImpossible as err:
        print(f"error: {err}", file=sys.stderr)
    finally:
        _close_outputs(args, out, out_created, detail, ok)
    return 0 if ok else EXIT_NO_BARRIER


def _close_outputs(args, out, out_created: bool, detail, ok: bool) -> None:
    if out is not None:
        out.close()
        if not ok and out_created:
            args.out.unlink()
    if detail is not None:
        detail.close()
        if not ok:
            args.detail_log.unlink()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())

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
or dmove), which handles one failure at a time. A command raises every
error as a ``CliError``; ``main`` alone prints it, as one ``error:`` line
on stderr, and returns its code. Stdout carries only data.

``sweep --out`` and ``--detail-log`` follow one rule: each file is opened
for append before any trial, so a bad path fails at once, and written only
after every size has run (the detail log waits in an anonymous temporary
file until then). Only a regular file is truncated before it is written,
and a failed sweep removes only a file that it created itself.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import stat
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from .core import EnergyModel, seeded_rng, world_from_json, world_to_json
from .distributed import MessageBus
from .harness import (
    SCHEMES,
    ExperimentConfig,
    InitialBarrierImpossible,
    designate_first_chain,
    generate_deployment,
    rows_to_csv,
    run_episode,
    run_experiment,
    start_scheme,
)

EXIT_USAGE = 2
EXIT_NO_BARRIER = 3
EXIT_MULTI_FAILURE = 4


class CliError(Exception):
    """An error for ``main`` to print as one ``error:`` line, with the
    exit code it returns."""

    def __init__(self, message, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


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
    gen.add_argument("--comm", type=float, default=None,
                     help="communication radius, at least 2*rho (default 2*rho)")
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


def cmd_generate(args: argparse.Namespace) -> None:
    try:
        config = ExperimentConfig(n=args.n, length=args.length, width=args.width, rho=args.rho,
                                  comm=args.comm, sigma=args.sigma, initial_energy=args.energy,
                                  seed=args.seed)
        sensors = generate_deployment(config, seeded_rng(config.seed))
        text = world_to_json(config.region(), sensors)
        if args.out is not None:
            args.out.write_text(text + "\n")
    except (OSError, ValueError) as err:
        raise CliError(err) from None
    if args.out is None:
        print(text)


def _distinct_ints(text: str, flag: str, many: str, one: str) -> list[int]:
    """The integers of a comma list, which must name at least one and none
    twice; empty items are skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise CliError(f"{flag} expects integer {many}, got {text!r}") from None
    if not values:
        raise CliError(f"{flag} lists no {many}")
    if len(set(values)) < len(values):
        raise CliError(f"{flag} repeats {one}: {text!r}")
    return values


def cmd_run(args: argparse.Namespace) -> None:
    failed_ids = _distinct_ints(args.fail, "--fail", "ids", "an id")
    if args.scheme in ("rmove", "dmove") and len(failed_ids) > 1:
        raise CliError(f"{args.scheme} handles failures one at a time", EXIT_MULTI_FAILURE)
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    try:
        model = EnergyModel(args.cost_per_unit, args.static_threshold)
    except ValueError as err:
        raise CliError(err) from None
    try:
        world = world_from_json(args.deployment.read_text(), energy_model=model)
    except (OSError, ValueError) as err:
        raise CliError(f"deployment {args.deployment}: {err}") from None
    for sid in failed_ids:
        if sid not in world.sensors:
            raise CliError(f"sensor {sid} not in deployment")

    if not designate_first_chain(world):
        raise CliError("deployment forms no initial barrier", EXIT_NO_BARRIER)

    bus = MessageBus(keep_log=args.trace)
    try:
        restore = start_scheme(args.scheme, world, seeded_rng(args.seed),
                               k=args.k, bus=bus)
    except ValueError as err:
        raise CliError(err) from None
    # One centralized step covers every failed chain member; the local
    # schemes were limited to a single id above. Failing edits no chain.
    edits = len(world.chain_edits)
    record, outcome = run_episode(world, restore, 1, failed_ids)

    doc = {
        "success": record.success,
        "mechanism": record.mechanism,
        "moves": [
            {"id": sid, "from": [a.x, a.y], "to": [b.x, b.y]}
            for sid, a, b in outcome.moves
        ],
        "total_displacement": record.displacement,
        "new_barrier": world.barrier if len(world.chain_edits) > edits else None,
        "scheme": args.scheme,
        "failed": failed_ids,
    }
    print(json.dumps(doc, indent=2))
    if args.trace:
        sys.stderr.write(bus.log_csv())


def _sweep_config(args: argparse.Namespace) -> dict:
    """The sweep's ``ExperimentConfig`` fields but n: the ``--config`` file,
    read once, under the command-line overrides."""
    base: dict = {}
    if args.config is not None:
        try:
            base = json.loads(args.config.read_text())
        except RecursionError:
            raise ValueError(f"config {args.config} nests too deeply") from None
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
    return base


def cmd_sweep(args: argparse.Namespace) -> None:
    if not args.n_list:
        raise CliError("--n-list is required")
    n_values = _distinct_ints(args.n_list, "--n-list", "sizes", "a size")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    named = [path.resolve() for path in (args.config, args.out, args.detail_log)
             if path is not None]
    if len(set(named)) < len(named):
        raise CliError("--config, --out and --detail-log must name different files")
    try:
        base = _sweep_config(args)
        configs = [ExperimentConfig(n=n, **base) for n in n_values]
    except (OSError, ValueError) as err:
        raise CliError(err) from None

    # The output rule of the module docstring: files maps each output path
    # to whether this sweep creates it and to the file opened for append.
    files = {}
    detail = None
    ok = False
    try:
        try:
            for path in (args.out, args.detail_log):
                if path is not None:
                    files[path] = (not path.exists(), path.open("a"))
            if args.detail_log is not None:
                detail = tempfile.TemporaryFile("w+")
        except OSError as err:
            raise CliError(err) from None
        try:
            rows = [row for config in configs
                    for row in run_experiment(config, jobs=args.jobs, detail_sink=detail)]
        except InitialBarrierImpossible as err:
            raise CliError(err, EXIT_NO_BARRIER) from None
        text = rows_to_csv(rows)
        if args.out is None:
            sys.stdout.write(text)
        try:
            for path, (_, file) in files.items():
                if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                    file.truncate(0)
                if path == args.out:
                    file.write(text)
                else:
                    detail.seek(0)
                    shutil.copyfileobj(detail, file)
                file.close()
        except OSError as err:
            raise CliError(err) from None
        ok = True
    finally:
        if detail is not None:
            detail.close()
        for path, (created, file) in files.items():
            file.close()
            if not ok and created:
                path.unlink()


COMMANDS = {"generate": cmd_generate, "run": cmd_run, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    return 0


if __name__ == "__main__":
    sys.exit(main())

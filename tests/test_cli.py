from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barrier_restore import cli, harness
from barrier_restore.cli import main
from barrier_restore.core import world_from_json, world_to_json
from conftest import T1_COORDS, make_world


def deployment_json(coords) -> str:
    world = make_world(coords, with_barrier=False)
    return world_to_json(world.region, world.sensors.values())


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(deployment_json(T1_COORDS))
    return path


@pytest.fixture
def disconnected_file(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(deployment_json([(1, 0), (9, 0)]))
    return path


class TestGenerate:
    def test_zero_sigma_grid(self, tmp_path, capsys):
        out = tmp_path / "dep.json"
        code = main([
            "generate", "--n", "5", "--length", "4000", "--sigma", "0",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [s["x"] for s in doc["sensors"]] == [0, 1000, 2000, 3000, 4000]
        assert doc["rho"] == 30.0 and doc["comm"] == 60.0

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--sigma", "0"])
        assert err.value.code == 2

    def test_output_bytes_are_pinned(self, capsys):
        # The digest of this deployment's JSON, recorded when coordinates
        # were still numpy scalars; plain floats print the same bytes.
        assert main(["generate", "--n", "160", "--seed", "5"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "9453fdaf569321e366664ec2492c8ad2e9a4f519ec329b523c82f8dc0a65d19f")

    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_draw_is_usage_error(self, tmp_path, capsys, to_file):
        # A placement error this wide draws coordinates that overflow to
        # infinity, which no deployment file may hold: run rejects them.
        out = tmp_path / "dep.json"
        argv = ["generate", "--n", "50", "--sigma", "1.7e308", "--seed", "0"]
        assert main(argv + (["--out", str(out)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: deployment holds a non-finite number\n"

    def test_overflow_writes_the_one_error_line_alone(self, tmp_path):
        # Here x overflows in the float arithmetic of the draw, not in
        # numpy's normal sampler, and float arithmetic overflows silently:
        # stderr holds the error line and no warning. A fresh interpreter,
        # with the default warning filters, runs it as a user does.
        src = Path(harness.__file__).resolve().parent.parent
        run = subprocess.run(
            [sys.executable, "-m", "barrier_restore", "generate", "--n", "3",
             "--length", "1.7e308", "--sigma", "1e308", "--seed", "1"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS=""))
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == "error: deployment holds a non-finite number\n"

    def test_same_flags_identical_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--n", "20", "--seed", "5", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_text() == b.read_text()


def _t1_text(mutate):
    doc = json.loads(deployment_json(T1_COORDS))
    mutate(doc)
    return json.dumps(doc)


# JSON nested deeper than the parser's recursion limit, which ended in a
# RecursionError traceback with exit 1.
_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_DEPLOYMENT = '{"region": ' + _DEEP + ', "rho": 30, "comm": 60, "sensors": []}'


class TestRunBadDeployment:
    @pytest.mark.parametrize("text", [
        # NaN x and negative energy used to run and report a shifting
        _t1_text(lambda d: d["sensors"][5].update(x=math.nan)),
        _t1_text(lambda d: [s.update(energy=-1.0) for s in d["sensors"]]),
        '{"region": {"L": 10, ',
        _t1_text(lambda d: d.pop("rho")),
        # int() alone would read id 2.5 as 2, so --fail 2 would fail it
        _t1_text(lambda d: d["sensors"][2].update(id=2.5)),
        # float() alone would read these as the numbers the file holds
        _t1_text(lambda d: d.update(rho=True)),
        _t1_text(lambda d: d.update(rho="1.5")),
        _t1_text(lambda d: d["region"].update(L="10")),
        _t1_text(lambda d: d["sensors"][0].update(x=True)),
        _DEEP_DEPLOYMENT,
        # One connectivity model: comm must reach 2ρ, here 2.
        _t1_text(lambda d: d.update(comm=1.5)),
        # World's two id rules.
        _t1_text(lambda d: d["sensors"][2].update(id=-4)),
        _t1_text(lambda d: d["sensors"][2].update(id=d["sensors"][4]["id"])),
    ], ids=["nan-x", "negative-energy", "malformed-json", "missing-rho", "fractional-id",
            "bool-rho", "string-rho", "string-length", "bool-x", "deeply-nested-region",
            "comm-below-two-rho", "negative-id", "duplicate-id"])
    def test_exit_usage_with_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["run", "--deployment", str(path), "--scheme", "cmove",
                     "--fail", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["--cost-per-unit", "0"],
        ["--cost-per-unit", "nan"],
        ["--static-threshold", "nan"],
        ["--static-threshold", "-1"],
    ], ids=lambda flags: "=".join(flags))
    def test_bad_energy_option(self, t1_file, capsys, flags):
        code = main(["run", "--deployment", str(t1_file), "--scheme", "dmove",
                     "--fail", "2", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_unreadable_file(self, tmp_path, capsys):
        code = main(["run", "--deployment", str(tmp_path / "absent.json"),
                     "--scheme", "rmove", "--fail", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, config", [
    (["generate", "--n", "1"], None),
    (["generate", "--n", "10", "--rho", "-1"], None),
    (["generate", "--n", "10", "--out", "{absent}/x.json"], None),
    (["sweep", "--n-list", "40", "--config", "{absent}"], None),
    (["sweep", "--n-list", "40", "--config", "{config}"], "[1, 2]"),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"trials": "3"}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"k_hop_budget": -4}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"report_points": 0.1}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"schemes": null}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"schemes": ["x", 3]}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"schemes": []}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"report_points": []}'),
    (["sweep", "--n-list", "40", "--jobs", "0"], None),
    (["sweep", "--n-list", ","], None),
    (["run", "--deployment", "{t1}", "--scheme", "dmove", "--fail", "2", "--k", "-3"], None),
    (["run", "--deployment", "{t1}", "--scheme", "rmove", "--fail", "2,2"], None),
    (["run", "--deployment", "{t1}", "--scheme", "cmove", "--fail", "2,2"], None),
    (["generate", "--n", "10", "--seed", "-3"], None),
    (["generate", "--n", "10", "--length", "inf"], None),
    (["generate", "--n", "10", "--energy", "inf"], None),
    (["sweep", "--n-list", "40", "--seed", "-1"], None),
    (["sweep", "--n-list", "40", "--length", "inf"], None),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"seed": -1}'),
    (["run", "--deployment", "{t1}", "--scheme", "dmove", "--fail", "2",
      "--cost-per-unit", "inf"], None),
    (["run", "--deployment", "{t1}", "--scheme", "dmove", "--fail", "2",
      "--static-threshold", "inf"], None),
    (["run", "--deployment", "{t1}", "--scheme", "dmove", "--fail", "2", "--seed", "-1"], None),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"trials": true}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"rho": true}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"report_points": [false, 0.1]}'),
    (["sweep", "--n-list", "40", "--schemes", "dmove,dmove"], None),
    (["sweep", "--n-list", "40,40"], None),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"report_points": [0.1, 0.1]}'),
    (["sweep", "--n-list", "40", "--schemes", ""], None),
    (["sweep", "--n-list", "40", "--config", "{config}"], '{"report_points": [0.1, 0.1000001]}'),
    (["sweep", "--n-list", "40", "--config", "{config}"], _DEEP),
    (["generate", "--n", "60", "--length", "1500", "--rho", "25", "--comm", "40",
      "--out", "{out}"], None),
    (["sweep", "--n-list", "40", "--config", "{config}", "--out", "{out}"],
     '{"rho": 25, "comm": 40}'),
    (["sweep", "--n-list", "40", "--rho", "30", "--config", "{config}", "--out", "{out}"],
     '{"comm": 50}'),
    (["run", "--deployment", "{t1}", "--scheme", "cmove", "--fail", "3,x"], None),
    (["sweep", "--n-list", "140,abc"], None),
], ids=["generate-n-1", "generate-negative-rho", "generate-bad-out",
        "sweep-missing-config", "sweep-config-list", "sweep-config-string-trials",
        "sweep-config-negative-k",
        "sweep-config-scalar-report-points", "sweep-config-null-schemes",
        "sweep-config-non-string-scheme", "sweep-config-empty-schemes",
        "sweep-config-empty-report-points", "sweep-jobs-0", "sweep-n-list-empty",
        "run-negative-k", "run-repeated-id-local", "run-repeated-id-centralized",
        "generate-negative-seed", "generate-infinite-length", "generate-infinite-energy",
        "sweep-negative-seed", "sweep-infinite-length", "sweep-config-negative-seed",
        "run-infinite-cost", "run-infinite-threshold", "run-negative-seed",
        "sweep-config-bool-trials", "sweep-config-bool-rho",
        "sweep-config-bool-report-point", "sweep-repeated-scheme", "sweep-repeated-size",
        "sweep-config-repeated-report-point", "sweep-empty-schemes",
        "sweep-config-report-points-print-alike", "sweep-config-deeply-nested",
        "generate-comm-below-two-rho", "sweep-config-comm-below-two-rho",
        "sweep-config-comm-below-two-rho-override", "run-non-integer-id",
        "sweep-non-integer-size"])
def test_bad_input_is_one_error_line(tmp_path, capsys, monkeypatch, argv, config):
    # Each of these used to end in a traceback and exit 1, or to run anyway.
    # A bad sweep must stop before its first deployment draw.
    def no_draw(*args):
        raise AssertionError("a deployment was drawn")

    monkeypatch.setattr(harness, "generate_deployment", no_draw)
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config)
    t1 = tmp_path / "t1.json"
    t1.write_text(deployment_json(T1_COORDS))
    out = tmp_path / "out.txt"
    argv = [a.format(absent=tmp_path / "absent.json", config=path, t1=t1, out=out)
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    if "--seed" in argv:
        # The line names the flag; numpy's own message does not.
        assert "seed" in captured.err


class TestRun:
    def test_cmove_middle_failure(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "cmove",
            "--fail", "2", "--seed", "1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] and doc["mechanism"] == "shifting"
        assert doc["total_displacement"] == pytest.approx(2.0)
        assert doc["new_barrier"] == [0, 1, 5, 3, 4]

    def test_nmove_failure_unrecoverable(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "nmove",
            "--fail", "2",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is False

    def test_dmove_multi_failure_rejected(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "dmove",
            "--fail", "2,3",
        ])
        assert code == 4

    def test_rmove_multi_failure_rejected(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "rmove",
            "--fail", "2,3",
        ])
        assert code == 4
        assert capsys.readouterr().err == "error: rmove handles failures one at a time\n"

    def test_no_initial_barrier_exit_code(self, disconnected_file):
        code = main([
            "run", "--deployment", str(disconnected_file), "--scheme", "cmove",
            "--fail", "0",
        ])
        assert code == 3

    def test_unknown_sensor_id(self, t1_file):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "cmove",
            "--fail", "77",
        ])
        assert code == 2

    def test_dmove_trace_goes_to_stderr(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "dmove",
            "--fail", "2", "--trace",
        ])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["success"]
        lines = captured.err.strip().splitlines()
        assert lines[0] == "round,sender,receiver,type,payload"
        assert any("SetRec" in line for line in lines)

    def test_cmove_multi_failure_supported(self, t1_file, capsys):
        code = main([
            "run", "--deployment", str(t1_file), "--scheme", "cmove",
            "--fail", "1,2",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed"] == [1, 2]

    @pytest.mark.parametrize("scheme, fail", [("cmove", "30,31,32"), ("rmove", "31")])
    def test_sensors_loaded_below_the_threshold_stay_put(self, tmp_path, capsys,
                                                         scheme, fail):
        # Every sensor of this deployment holds energy 100. The scheme
        # restores the barrier by shifting at the default threshold, and
        # moves nothing when the threshold is 150.
        dep = tmp_path / "d.json"
        assert main(["generate", "--n", "60", "--length", "1500", "--seed", "1",
                     "--out", str(dep)]) == 0
        run = ["run", "--deployment", str(dep), "--scheme", scheme, "--fail", fail]
        assert main(run) == 0
        assert json.loads(capsys.readouterr().out)["mechanism"] == "shifting"
        assert main([*run, "--static-threshold", "150"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["success"], doc["mechanism"], doc["moves"]) == (False, "none", [])


class TestSweep:
    ARGS = [
        "sweep", "--n-list", "40", "--trials", "2", "--seed", "3",
        "--length", "400", "--rho", "30",
    ]

    def test_row_count_single_scheme(self, capsys):
        code = main(self.ARGS + ["--schemes", "nmove"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("scheme,N,trials,failure_pct")
        assert len(lines) == 1 + 6

    def test_full_grid_row_count(self, capsys):
        code = main([
            "sweep", "--n-list", "40,50", "--trials", "1", "--seed", "3",
            "--length", "400", "--rho", "30",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4 * 2 * 6  # schemes x n values x points

    def test_repeat_invocation_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_missing_n_list_usage_error(self):
        assert main(["sweep", "--trials", "1"]) == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "length": 400.0, "rho": 30.0, "trials": 1,
            "schemes": ["nmove", "cmove"], "seed": 12,
        }))
        code = main([
            "sweep", "--config", str(cfg), "--n-list", "40",
            "--schemes", "nmove",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 6  # flag narrowed the scheme list

    def test_config_file_is_read_once_per_sweep(self, tmp_path, capsys, monkeypatch):
        # Every size of one sweep runs under the one config that was read.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"length": 400.0, "trials": 1, "schemes": ["nmove"]}))
        reads = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        assert main(["sweep", "--config", str(cfg), "--n-list", "30,40,50"]) == 0
        assert reads.count(cfg) == 1
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3 * 6

    def test_no_initial_barrier_exit_code(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        detail = tmp_path / "episodes.jsonl"
        code = main([
            "sweep", "--n-list", "20", "--trials", "2", "--length", "4000",
            "--out", str(out), "--detail-log", str(detail),
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no initial barrier")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists() and not detail.exists()

    @pytest.mark.parametrize("bad, good", [("--out", "--detail-log"),
                                           ("--detail-log", "--out")])
    def test_unwritable_output_fails_before_any_trial(self, tmp_path, capsys,
                                                      monkeypatch, bad, good):
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args, **kwargs: pytest.fail("a trial ran"))
        other = tmp_path / "other"
        code = main(self.ARGS + [bad, str(tmp_path / "absent" / "x"), good, str(other)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert not other.exists()

    @pytest.mark.parametrize("first, second", [("--out", "--detail-log"),
                                               ("--config", "--out"),
                                               ("--config", "--detail-log")])
    @pytest.mark.parametrize("spelling", ["cfg.json", "sub/../cfg.json", "{tmp}/cfg.json",
                                          "link.json"])
    def test_two_flags_naming_one_file(self, tmp_path, capsys, monkeypatch,
                                       first, second, spelling):
        # --out and --detail-log once wrote to the one file, which ended up as
        # the CSV, a run of NUL bytes and the detail log's tail; an output
        # that names the config overwrote it. Each sweep exited 0.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *args, **kwargs: pytest.fail("a trial ran"))
        path = tmp_path / "cfg.json"
        path.write_text("{}\n")
        (tmp_path / "link.json").symlink_to(path)
        (tmp_path / "sub").mkdir()
        code = main(self.ARGS + [first, "cfg.json", second, spelling.format(tmp=tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert path.read_text() == "{}\n"

    # A failed sweep once removed an existing --detail-log; through a
    # symlink, it removed the link and overwrote the link's target.
    @pytest.mark.parametrize("extra, want", [
        (["--out", "{kept}", "--detail-log", "absent/x.jsonl"], 2),  # bad path
        (["--out", "{kept}", "--n-list", "40,5"], 3),  # N=5 forms no barrier
        (["--detail-log", "{kept}", "--out", "absent/x.csv"], 2),
        (["--detail-log", "{kept}", "--n-list", "40,5"], 3),
        (["--detail-log", "{link}", "--n-list", "40,5"], 3),
    ])
    def test_failed_sweep_keeps_existing_out_file(self, tmp_path, monkeypatch,
                                                  extra, want):
        monkeypatch.chdir(tmp_path)
        kept, link = tmp_path / "kept.txt", tmp_path / "link.txt"
        kept.write_text("kept\n")
        link.symlink_to(kept)
        assert main(self.ARGS + [a.format(kept=kept, link=link) for a in extra]) == want
        assert kept.read_text() == "kept\n" and link.is_symlink()

    def test_successful_sweep_replaces_existing_out_file(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        out.write_text("x" * 100_000)
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert main(self.ARGS) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("device, want", [(os.devnull, 0), ("/dev/full", 2)])
    def test_sweep_to_a_device_file(self, capsys, device, want):
        # Truncating a device raised EINVAL with a traceback. A device is
        # written without it, and a write that fails is one error line.
        if not Path(device).exists():
            pytest.skip(f"no {device} here")
        assert main(self.ARGS + ["--out", device]) == want
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == (want != 0)

    def test_no_initial_barrier_on_stdout_prints_no_rows(self, capsys):
        # N=40 forms a barrier on this belt, N=5 never does.
        code = main(self.ARGS + ["--n-list", "40,5"])
        assert code == 3
        assert capsys.readouterr().out == ""

    # sha256 of the CSV and of the detail log of
    # `sweep --n-list 140,160 --trials 4 --seed 0`, recorded before the
    # incremental dmove election; any --jobs gives the same bytes.
    PINNED_CSV = "5806378018319843be4d7fc695b5f1a3836bb6a718165bbe1a080bd4d3f46ed9"
    PINNED_DETAIL = "240f3e40926e0cb6995bc0d31c4f54424ed8d4b1113ee5b519c62e46bd514a5c"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pinned_sweep_bytes(self, tmp_path, jobs):
        out, detail = tmp_path / "grid.csv", tmp_path / "episodes.jsonl"
        code = main(["sweep", "--n-list", "140,160", "--trials", "4", "--seed", "0",
                     "--jobs", jobs, "--out", str(out), "--detail-log", str(detail)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_CSV
        assert hashlib.sha256(detail.read_bytes()).hexdigest() == self.PINNED_DETAIL

    def test_invalid_config_value_is_usage_error(self, capsys):
        assert main(self.ARGS + ["--rho", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: rho must be positive")


README = Path(__file__).resolve().parent.parent / "README.md"


def documented_exit_codes() -> set[int]:
    """The codes of the README's exit-code table."""
    lines = README.read_text().splitlines()
    start = lines.index("| code | meaning |") + 2
    codes = set()
    for line in lines[start:]:
        if not line.startswith("| "):
            break
        codes.add(int(line.split("|")[1]))
    return codes


# Flag values: good ones, and zero, negative, non-finite, huge and malformed
# ones. Sizes, trial counts and redraw budgets stay small, and --jobs stays
# at one worker, so that every command line ends quickly.
_FLOAT = st.sampled_from(["30", "60", "100", "400", "0.5", "0", "-0.0", "-1", "nan", "inf",
                          "-inf", "1e308", "1e400", "1e-300", "x", ""])
_SEED = st.sampled_from(["7", "-1", "-12", "99999999999999999999", "x"])
_FLAGS = {
    "generate": {
        "--n": st.sampled_from(["3", "10", "2", "1", "0", "-4", "x"]),
        "--length": _FLOAT, "--width": _FLOAT, "--rho": _FLOAT, "--comm": _FLOAT,
        "--sigma": _FLOAT, "--energy": _FLOAT, "--seed": _SEED,
    },
    "run": {
        "--scheme": st.sampled_from([*harness.SCHEMES, "x"]),
        "--fail": st.sampled_from(["2", "1,3", "2,2", "99", "-1", "x", "", ","]),
        "--seed": _SEED, "--k": st.sampled_from(["1", "3", "0", "-3", "x"]),
        "--cost-per-unit": _FLOAT, "--static-threshold": _FLOAT,
    },
    "sweep": {
        "--schemes": st.sampled_from(["nmove", "rmove,dmove", "cmove,nmove",
                                      "nmove,rmove,cmove,dmove", "x", ",", ""]),
        "--n-list": st.sampled_from(["3", "5", "4,3", "2", "1", "0", "-3", "x", ",", "3,,4", ""]),
        "--trials": st.sampled_from(["1", "2", "0", "-1", "1.5", "x"]),
        "--seed": _SEED, "--length": _FLOAT, "--width": _FLOAT, "--rho": _FLOAT,
        "--sigma": _FLOAT, "--jobs": st.sampled_from(["1", "0", "-2", "x"]),
    },
}
# JSON values of every kind, NaN, infinities and numbers too large for a
# float included; _SMALL has no large integers, for the keys that count work.
_SCALAR = st.sampled_from([
    None, True, False, 0, 1, 2, -1, -7, 10**30, 10**400, 0.0, -0.0, 0.05, 0.3, 1.0,
    30.0, 100.0, -1.0, 1e308, 1e-300, math.nan, math.inf, -math.inf, "", "3", "nmove"])
_VALUE = st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3),
                   st.dictionaries(st.sampled_from(["a", "n"]), _SCALAR, max_size=2))
_SMALL = st.sampled_from([None, 0, 1, 2, -1, 1.5, math.nan, "2", [1]])
# A config that runs a few small trials, which the fuzz then edits: it
# drops some keys and sets others, known or not, to random values.
_BASE_CONFIG = {"length": 100.0, "rho": 30.0, "trials": 1, "max_redraws": 3,
                "schemes": ["nmove", "cmove", "dmove"], "report_points": [0.1, 0.3]}
_CONFIG_KEYS = sorted({f.name for f in fields(harness.ExperimentConfig)} | {"bogus"})


@st.composite
def _config_doc(draw):
    if not draw(st.integers(0, 9)):
        return draw(_VALUE)  # not an object
    doc = dict(_BASE_CONFIG)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        del doc[key]
    for key in draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=2, unique=True)):
        doc[key] = draw(_SMALL if key in ("trials", "max_redraws") else _VALUE)
    return doc


# A deployment key to drop or to set to a random value.
_DEPLOYMENT_KEYS = [("region",), ("region", "L"), ("rho",), ("comm",), ("sensors",),
                    ("sensors", 0), ("sensors", 0, "id"), ("sensors", 0, "x"),
                    ("sensors", 1, "energy")]


# Flags that run quickly; the fuzz drops some of them and gives others,
# or ones not listed here, random values. A sweep with a config file starts
# from the sizes alone, so the file's keys are not overridden.
_GOOD_FLAGS = {
    "generate": {"--n": "10", "--length": "100", "--seed": "0"},
    "run": {"--scheme": "cmove", "--fail": "2", "--seed": "0"},
    "sweep": {"--n-list": "3", "--trials": "1", "--length": "100", "--seed": "0",
              "--schemes": "nmove,rmove,cmove,dmove"},
}


@st.composite
def _command_lines(draw):
    """(argv, config text or None, deployment text or None): a subcommand
    with good flags, some of them dropped, and some flags given random
    values; for sweep maybe a config file, for run a deployment file."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    config = deployment = None
    good = dict(_GOOD_FLAGS[command])
    if command == "sweep" and draw(st.booleans()):
        good = {"--n-list": good["--n-list"]}
        config = json.dumps(draw(_config_doc())) if draw(st.integers(0, 9)) else "{not json"
        good["--config"] = "{config}"
    for flag in draw(st.lists(st.sampled_from(sorted(good)), max_size=1)):
        del good[flag]
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        good[flag] = draw(flags[flag])
    argv = [command, *(f"{flag}={value}" for flag, value in good.items())]
    if command == "run":
        which = draw(st.sampled_from(["t1", "gap", "fuzzed", "absent"]))
        coords = [(1, 0), (9, 0)] if which == "gap" else T1_COORDS
        doc = json.loads(deployment_json(coords))
        if which == "fuzzed":
            *path, key = draw(st.sampled_from(_DEPLOYMENT_KEYS))
            holder = doc
            for step in path:
                holder = holder[step]
            if draw(st.booleans()):
                del holder[key]
            else:
                holder[key] = draw(_VALUE)
        deployment = None if which == "absent" else json.dumps(doc)
        argv.append("--deployment={deployment}")
        if draw(st.booleans()):
            argv.append("--trace")
    if command != "run" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--out={tmp}/out.txt", "--out={tmp}/absent/out.txt"])))
    if command == "sweep" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--detail-log={tmp}/detail.jsonl",
                                          "--detail-log={tmp}/absent/detail.jsonl"])))
    return argv, config, deployment


def _t1_deployment(**first_sensor) -> str:
    doc = json.loads(deployment_json(T1_COORDS))
    doc["sensors"][0].update(first_sensor)
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(_command_lines())
# Each of the first five ended in a traceback once; the last two name a
# size numpy cannot address.
@example((["generate", "--n=3", "--length=30", "--sigma=-0.0"], None, None))
@example((["sweep", "--n-list=3", "--config={config}"], json.dumps({"length": 10**400}), None))
@example((["run", "--scheme=cmove", "--fail=2", "--deployment={deployment}"], None,
          _t1_deployment(id=math.inf)))
@example((["generate", "--n=99999999999999999999"], None, None))
@example((["sweep", "--n-list=99999999999999999999"], None, None))
@example((["run", "--scheme=rmove", "--fail=1,3", "--deployment={deployment}"], None,
          _t1_deployment()))
# Each of these exited 0: the first with a corrupt CSV, the second with a
# deployment that run rejects.
@example((["sweep", "--n-list=10", "--trials=1", "--length=100", "--seed=0",
           "--out={tmp}/out.txt", "--detail-log={tmp}/out.txt"], None, None))
@example((["generate", "--n=50", "--sigma=1.7e308", "--seed=0"], None, None))
# This one ended in a traceback once.
@example((["run", "--scheme=cmove", "--fail=2", "--deployment={deployment}"], None,
          _DEEP_DEPLOYMENT))
def test_fuzzed_command_lines(case):
    # Every command line ends with exit 0, or with a code of the README's
    # table and one error line; never with a traceback, and a failed one
    # leaves no output file behind.
    argv, config, deployment = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(config or "")
        if deployment is not None:
            (tmp / "deployment.json").write_text(deployment)
        argv = [a.format(tmp=tmp, config=tmp / "config.json",
                         deployment=tmp / "deployment.json") for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        parsed = True
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exit:  # argparse rejected a flag
                code, parsed = exit.code, False
        outputs = [tmp / "out.txt", tmp / "detail.jsonl"]
        assert code in documented_exit_codes()
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert not any("error:" in line for line in lines)
            if argv[0] == "sweep":
                out = outputs[0] if outputs[0].exists() else None
                text = out.read_text() if out else stdout.getvalue()
                rows = text.splitlines()
                assert text.endswith("\n") and rows[0] == harness.CSV_HEADER and rows[1:]
                assert all(len(row.split(",")) == 7 for row in rows)
                if outputs[1].exists():
                    for line in outputs[1].read_text().splitlines():
                        assert json.loads(line)["scheme"] in harness.SCHEMES
            if argv[0] == "generate":
                # What generate writes, run reads.
                world_from_json(outputs[0].read_text() if outputs[0].exists()
                                else stdout.getvalue())
        else:
            assert stdout.getvalue() == ""
            assert sum("error:" in line for line in lines) == 1
            if parsed:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not any(path.exists() for path in outputs)

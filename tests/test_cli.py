"""Command line behaviour: golden outputs, exit codes, reproducible files.

Most tests drive cli.main() in-process so exit codes and streams are easy
to assert; one test runs the real `python -m fedcarbon` entry point.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcarbon import cli
from fedcarbon.carbon import RoundSchedule, ScheduleEntry, schedule_from_dict, schedule_to_dict
from fedcarbon.cli import main
from fedcarbon.profiles import DATACENTER, EDGE, _resolve, builtin_registry

from conftest import FIXTURES_DIR

CONFIGS = FIXTURES_DIR / "configs"
SCHEDULES = FIXTURES_DIR / "schedules"

FL_NOMINAL = str(CONFIGS / "fl_tx2_nominal_china.json")
FL_DEMO = str(CONFIGS / "fl_sim_small_france.json")
CEN_CIFAR = str(CONFIGS / "centralized_cifar10_world_france.json")
CEN_SPEECH_WORLD = str(CONFIGS / "centralized_speech_world_france.json")
CEN_SPEECH_GOOGLE = str(CONFIGS / "centralized_speech_google_france.json")
FL_ADAPTIVE = str(CONFIGS / "fl_tx2_cifar10_adaptive_france.json")
SCHED_16X5 = str(SCHEDULES / "tx2_nominal_16x5.json")
SCHED_349X10 = str(SCHEDULES / "tx2_cifar10_adaptive_349x10.json")
GRID_TABLE = str(FIXTURES_DIR / "cifar10_grid_results.json")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_fixture_schedule_emission(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                               "--fixtures", SCHED_16X5)
        assert code == 0
        report = json.loads(out)
        assert report["co2e_g"] == pytest.approx(11.132097777777778, rel=1e-12)
        assert report["grid_region"] == "china"
        assert report["communication_wh"] == 0.0

    def test_centralized_emission(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--config", CEN_CIFAR)
        assert code == 0
        report = json.loads(out)
        assert report["co2e_g"] == pytest.approx(0.3553314666666667, rel=1e-12)
        assert report["mode"] == "centralized"

    def test_centralized_config_with_a_schedule_rejected(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--config", CEN_CIFAR,
                                 "--fixtures", SCHED_16X5)
        assert code == 1 and out == ""
        assert err == "error: centralized mode does not read a schedule (--fixtures)\n"

    def test_simulated_estimate_prices_executed_rounds(self, capsys):
        # the demo run stops early; the report must price what actually ran
        code, out, _ = run_cli(capsys, "estimate", "--config", FL_DEMO)
        assert code == 0
        report = json.loads(out)
        assert report["total_wh"] > 0
        assert report["comm_fraction"] > 0  # 357 Mb payload over the WAN

    def test_out_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                               "--fixtures", SCHED_16X5, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["co2e_g"] == pytest.approx(
            11.132097777777778, rel=1e-12)
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("command, config, out", [
        ("estimate", FL_NOMINAL, "outdir"), ("simulate", FL_DEMO, "run.csv")],
        ids=["estimate", "simulate"])
    def test_failed_rename_leaves_no_temp_file(self, capsys, tmp_path, command, config, out):
        # simulate writes <base>.csv first, so a directory of that name stops it.
        (tmp_path / out).mkdir()
        code, stdout, err = run_cli(capsys, command, "--config", config,
                                    "--out", str(tmp_path / out))
        assert code == 2 and stdout == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("command, config", [
        ("estimate", FL_NOMINAL), ("simulate", FL_DEMO)], ids=["estimate", "simulate"])
    def test_failed_write_leaves_no_file(self, capsys, tmp_path, monkeypatch,
                                         command, config):
        def fill_disk(path, text):
            with open(path, "w") as f:
                f.write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", fill_disk)
        code, stdout, err = run_cli(capsys, command, "--config", config,
                                    "--out", str(tmp_path / "out"))
        assert code == 2 and stdout == ""
        assert err.startswith("i/o error: [Errno 28] No space left on device")
        assert list(tmp_path.iterdir()) == []

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "estimate", "--config", FL_DEMO, "--out", str(a))
        run_cli(capsys, "estimate", "--config", FL_DEMO, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_digest(self, capsys):
        _, out1, _ = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                             "--fixtures", SCHED_16X5)
        _, out2, _ = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                             "--fixtures", SCHED_16X5, "--seed", "99")
        d1 = json.loads(out1)
        d2 = json.loads(out2)
        assert d1["config_digest"] != d2["config_digest"]
        assert d1["co2e_g"] == d2["co2e_g"]  # the energy itself is seed-free


class TestOnePricingPath:
    """estimate and compare price every source the same way."""

    @pytest.mark.parametrize("config, schedule", [
        (FL_NOMINAL, SCHED_16X5), (FL_ADAPTIVE, SCHED_349X10)],
        ids=["nominal", "adaptive"])
    def test_declared_round_structure_equals_its_fixture_schedule(
            self, capsys, config, schedule):
        code, out, _ = run_cli(capsys, "estimate", "--config", config)
        assert code == 0
        declared = json.loads(out)
        _, out, _ = run_cli(capsys, "estimate", "--config", config,
                            "--fixtures", schedule)
        fixture = json.loads(out)
        assert declared.keys() == fixture.keys()
        for key, value in fixture.items():
            if isinstance(value, float):
                assert declared[key] == pytest.approx(value, rel=1e-12), key
            else:
                assert declared[key] == value, key

    @pytest.mark.parametrize("config, schedule", [
        (CEN_CIFAR, None), (FL_NOMINAL, SCHED_16X5), (FL_DEMO, None),
        (FL_NOMINAL, None)], ids=["centralized", "fixture", "sim", "declared"])
    def test_compare_and_estimate_agree(self, capsys, config, schedule):
        fixtures = ["--fixtures", schedule] if schedule else []
        _, out, _ = run_cli(capsys, "estimate", "--config", config, *fixtures)
        total_wh = json.loads(out)["total_wh"]
        code, out, _ = run_cli(capsys, "compare", "--config", config,
                               "--config", config, *fixtures, *fixtures)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["total_wh"]) for r in rows] == [total_wh, total_wh]

    def test_trace_ends_at_the_estimated_training_energy(self, capsys, tmp_path):
        base = tmp_path / "run"
        assert run_cli(capsys, "simulate", "--config", FL_DEMO,
                       "--out", str(base))[0] == 0
        rows = list(csv.DictReader(
            ln for ln in (tmp_path / "run.csv").read_text().splitlines()
            if not ln.startswith("#")))
        _, out, _ = run_cli(capsys, "estimate", "--config", FL_DEMO)
        assert float(rows[-1]["cumulative_wh"]) == json.loads(out)["training_wh"]

    @pytest.mark.parametrize("cap, exit_code", [(None, 0), (4, 3)],
                             ids=["stops-early", "whole-cap"])
    def test_simulated_schedule_prices_as_estimate(self, capsys, tmp_path, cap, exit_code):
        # FL_DEMO meets its target after 3 of its 40 rounds; a copy capped
        # at 4 rounds with target 1.0 runs all 4
        config = FL_DEMO
        if cap is not None:
            raw = json.loads(Path(FL_DEMO).read_text())
            raw["fl"]["rounds"] = cap
            raw["sim"]["target_accuracy"] = 1.0
            config = str(tmp_path / "cfg.json")
            Path(config).write_text(json.dumps(raw))
        base = tmp_path / "run"
        assert run_cli(capsys, "simulate", "--config", config,
                       "--out", str(base))[0] == exit_code
        schedule = str(tmp_path / "run.schedule.json")
        assert json.loads(Path(schedule).read_text())["rounds"] == (cap or 3)
        code, direct, _ = run_cli(capsys, "estimate", "--config", config)
        assert code == 0
        code, priced, _ = run_cli(capsys, "estimate", "--config", config,
                                  "--fixtures", schedule)
        assert code == 0 and priced == direct
        header = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert header.startswith(f"# config_digest={json.loads(priced)['config_digest']} ")


class TestSimulate:
    def test_writes_trace_and_schedule(self, capsys, tmp_path):
        base = tmp_path / "run"
        code, _, _ = run_cli(capsys, "simulate", "--config", FL_DEMO,
                             "--out", str(base))
        assert code == 0
        trace = (tmp_path / "run.csv").read_text()
        lines = trace.splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "round,accuracy,cumulative_wh"
        assert len(lines) >= 3
        sched = json.loads((tmp_path / "run.schedule.json").read_text())
        assert sched["rounds"] == len(lines) - 2
        assert len(sched["participation"]) == sched["rounds"] * 5

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        run_cli(capsys, "simulate", "--config", FL_DEMO, "--out",
                str(tmp_path / "one"))
        run_cli(capsys, "simulate", "--config", FL_DEMO, "--out",
                str(tmp_path / "two"))
        assert (tmp_path / "one.csv").read_bytes() == \
            (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.schedule.json").read_bytes() == \
            (tmp_path / "two.schedule.json").read_bytes()

    def test_cumulative_energy_column_is_increasing(self, capsys, tmp_path):
        base = tmp_path / "run"
        run_cli(capsys, "simulate", "--config", FL_DEMO, "--out", str(base))
        rows = list(csv.DictReader(
            [ln for ln in (tmp_path / "run.csv").read_text().splitlines()
             if not ln.startswith("#")]))
        cum = [float(r["cumulative_wh"]) for r in rows]
        assert all(b > a for a, b in zip(cum, cum[1:])) or len(cum) == 1

    @pytest.mark.parametrize("out", ["outdir/", "outdir/.csv", ".csv", "outdir/."])
    def test_out_naming_no_file_is_validation_error(self, capsys, tmp_path,
                                                   monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        code, stdout, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                    "--out", out)
        assert code == 1 and stdout == ""
        assert err == (f"error: --out {out!r} names no file: simulate writes "
                       "<out>.csv and <out>.schedule.json\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["outdir"]

    def test_unreached_target_exits_3(self, capsys, tmp_path):
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        raw["fl"]["rounds"] = 2
        raw["sim"]["target_accuracy"] = 0.999
        raw["sim"]["separation"] = 1.0
        cfg_path = tmp_path / "hard.json"
        cfg_path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(tmp_path / "hard"))
        assert code == 3
        assert "not reached" in err
        # outputs are still written for inspection
        assert (tmp_path / "hard.csv").exists()

    # sha256 of run.csv and run.schedule.json, recorded before the task was
    # drawn in place and the client generators seeded from uint32 words.
    # "pool" is the demo config grown to 2 000 clients and 40 000 samples,
    # a task of several row blocks.
    @pytest.mark.parametrize("name, exit_code, csv_digest, schedule_digest", [
        ("demo", 0, "aa4ee5732f37825f3b833121296386a1abc4f7a77050acac6056fd3f54fa3cc9",
         "7c1b455da6034285e306d50b6a1c4d8a65c1c396558a0c0ca99d65a11b4949f8"),
        ("pool", 3, "fa3284d4e779ea6f71072ca5d0686d0d427543fc37d93795e09f1b3be95c39a1",
         "8438e192916fd7ffb2a91ab5c2b4a2221426564c4ac6413f781b43880b89b6e5"),
    ], ids=["demo", "pool"])
    def test_output_bytes_are_pinned(self, capsys, tmp_path, name, exit_code,
                                     csv_digest, schedule_digest):
        config = FL_DEMO
        if name == "pool":
            raw = json.loads(Path(FL_DEMO).read_text())
            raw["seed"] = 11
            raw["fl"].update(pool_size=2000, clients_per_round=20, rounds=3,
                             local_epochs=2)
            raw["sim"].update(n_samples=40_000, alpha=0.5, target_accuracy=0.99)
            config = str(tmp_path / "pool.json")
            Path(config).write_text(json.dumps(raw))
        base = tmp_path / "run"
        assert run_cli(capsys, "simulate", "--config", config,
                       "--out", str(base))[0] == exit_code
        assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(
            (tmp_path / "run.schedule.json").read_bytes()).hexdigest() == schedule_digest

    def test_diverged_run_is_validation_error(self, capsys, tmp_path):
        raw = json.loads(Path(FL_DEMO).read_text())
        raw["fl"]["rounds"] = 3
        raw["sim"]["separation"] = 1e300
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                     "--out", str(tmp_path / "run"))
        assert code == 1 and out == ""
        assert err == "error: round 1: training diverged: the parameters are not finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    def test_a_schedule_that_cannot_be_rendered_leaves_no_file(self, capsys, tmp_path,
                                                               monkeypatch):
        def unrenderable(doc):
            raise ValueError("Out of range float values are not JSON compliant")

        monkeypatch.setattr(cli, "_schedule_text", unrenderable)
        code, out, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                 "--out", str(tmp_path / "run"))
        assert code == 1 and out == ""
        assert err == "error: Out of range float values are not JSON compliant\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("before", ["absent", "earlier run"])
    @pytest.mark.parametrize("failing", ["run.csv", "run.schedule.json"])
    def test_a_failed_write_of_either_file_leaves_both_as_they_were(
            self, capsys, tmp_path, monkeypatch, failing, before):
        names = ("run.csv", "run.schedule.json")
        if before == "earlier run":
            for name in names:
                (tmp_path / name).write_text(f"an earlier {name}\n")
        write_text = Path.write_text

        def fill_disk(path, text):
            if path.name != failing + ".tmp":
                return write_text(path, text)
            write_text(path, text[:10])
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", fill_disk)
        code, out, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                 "--out", str(tmp_path / "run"))
        assert code == 2 and out == ""
        assert err.startswith("i/o error: [Errno 28] No space left on device")
        if before == "absent":
            assert list(tmp_path.iterdir()) == []
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
            for name in names:
                assert (tmp_path / name).read_text() == f"an earlier {name}\n"

    def test_a_failed_second_rename_leaves_the_new_trace_only(self, capsys, tmp_path):
        # As the README says: <out>.csv is renamed first, so it holds the
        # new trace; <out>.schedule.json holds what it held; no temp file
        # is left.  A directory in the schedule's place stops its rename.
        code, _, _ = run_cli(capsys, "simulate", "--config", FL_DEMO,
                             "--out", str(tmp_path / "want"))
        assert code == 0
        (tmp_path / "run.csv").write_text("an earlier trace\n")
        (tmp_path / "run.schedule.json").mkdir()
        code, out, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                 "--out", str(tmp_path / "run"))
        assert code == 2 and out == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert list((tmp_path / "run.schedule.json").iterdir()) == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_exhaustion_warnings_reported_on_stderr(self, capsys, tmp_path):
        # The demo pool hands out its whole train split, so late clients
        # find classes dry; partition reports the same count in its JSON.
        code, out, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                 "--out", str(tmp_path / "run"))
        assert code == 0 and out == ""
        _, payload, _ = run_cli(capsys, "partition", "--config", FL_DEMO)
        count = json.loads(payload)["exhaustion_warnings"]
        assert count > 0
        assert err == (f"warning: alpha=1000.0: {count} exhaustion warnings while "
                       "assigning samples (a client's class mix was re-spread "
                       "over the classes with samples left)\n")


_REGISTRY_HARDWARE = sorted(key[3:] for key in builtin_registry() if key.startswith("hw:"))
_FLOAT_MAX = sys.float_info.max
_WALL_TIMES = (st.sampled_from([5e-324, _FLOAT_MAX, 0.8, 2])
               | st.floats(min_value=5e-324, allow_infinity=False))
_IDS = st.sampled_from([0, 1, 2 ** 63 - 1]) | st.integers(0, 2 ** 63 - 1)


@st.composite
def _inline_hardware(draw):
    """An inline hardware object: a name that may need escapes, int or
    float fields and a signed zero idle draw."""
    return {
        "name": draw(st.sampled_from(["phone", 'say "hi"', "a\nb\\c", "caf\u00e9 \u2615",
                                      "\x00\u2028"]) | st.text(max_size=6)),
        "active_power_w": draw(st.sampled_from([2, 2.0, 4.7, 10 ** 300, _FLOAT_MAX])
                               | st.floats(2.0, 1e6)),
        "idle_power_w": draw(st.sampled_from([0, 0.0, -0.0, 1, 1.35, 5e-324])),
        "time_per_local_epoch_s": draw(_WALL_TIMES),
        "kind": draw(st.sampled_from([EDGE, DATACENTER])),
    }


@st.composite
def _schedules(draw):
    """A schedule built through RoundSchedule(rounds, entries),
    schedule_from_dict or RoundSchedule._same_device, over registry and
    inline hardware."""
    hardware = draw(st.lists(st.sampled_from(_REGISTRY_HARDWARE) | _inline_hardware(),
                             min_size=1, max_size=4))
    how = draw(st.sampled_from(["entries", "dict", "same_device"]))
    if how == "same_device":
        width = draw(st.integers(0, 4))
        rows = [draw(st.lists(_IDS, min_size=width, max_size=width, unique=True))
                for _ in range(draw(st.integers(0, 3)))]
        clients = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        profile = _resolve(hardware[0], "hw:", builtin_registry())
        return RoundSchedule._same_device(len(rows) + draw(st.integers(0, 2)), clients,
                                          draw(_WALL_TIMES), profile)
    pairs = draw(st.lists(st.tuples(_IDS, _IDS), max_size=8, unique=True))
    rounds = max((r for r, _ in pairs), default=-1) + 1 + draw(st.integers(0, 2))
    entries = [{"round": r, "client": c, "wall_time_s": draw(_WALL_TIMES),
                "hardware": draw(st.sampled_from(hardware))} for r, c in pairs]
    if how == "dict":
        return schedule_from_dict({"rounds": rounds, "participation": entries})
    return RoundSchedule(rounds, [
        ScheduleEntry(e["round"], e["client"], e["wall_time_s"],
                      _resolve(e["hardware"], "hw:", builtin_registry()))
        for e in entries])


class TestScheduleText:
    @settings(max_examples=200, deadline=None)
    @given(schedule=_schedules())
    def test_equals_the_json_module(self, schedule):
        doc = schedule_to_dict(schedule)
        assert cli._schedule_text(doc) == cli._json_text(doc)

    def test_hardware_values_of_other_types_stay_apart(self):
        hardware = [{"name": "x", "active_power_w": value} for value in (1, 1.0, True)]
        doc = {"rounds": 1, "participation": [
            {"round": 0, "client": c, "wall_time_s": 1.0, "hardware": hw}
            for c, hw in enumerate(hardware)]}
        assert cli._schedule_text(doc) == cli._json_text(doc)


class TestPartition:
    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--config", FL_DEMO)
        assert code == 0
        data = json.loads(out)
        assert len(data["per_client"]) == 20
        assert len(data["assignments"]) == 20
        for row in data["per_client"]:
            assert abs(sum(row) - 1.0) < 1e-9
        flat = [i for shard in data["assignments"] for i in shard]
        assert len(flat) == len(set(flat))
        assert data["exhaustion_warnings"] >= 0

    def test_alpha_override_concentrates_the_mix(self, capsys):
        _, out_iid, _ = run_cli(capsys, "partition", "--config", FL_DEMO)
        _, out_skew, _ = run_cli(capsys, "partition", "--config", FL_DEMO,
                                 "--alpha", "0.1")
        iid = json.loads(out_iid)
        skew = json.loads(out_skew)
        assert skew["alpha"] == 0.1
        max_iid = max(max(r) for r in iid["per_client"])
        max_skew = max(max(r) for r in skew["per_client"])
        assert max_skew > max_iid

    def test_centralized_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--config", CEN_CIFAR)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("alpha, seed, digest", [
        ("1000", "0", "ccf3d1e4bcf483c280da54d22d49fe0729079ee4bec7bfd68188346bfad28634"),
        ("0.1", "0", "60eb3444ad33ad06d5590294f10b0b5c31d9e5310c8614ee3cc08eaa5ca00c14"),
        ("1000", "7", "b52579b24ab131437197595b77e24bb38557de823e2a0ea07404a99ec2f5c7c8"),
        ("0.1", "7", "12edd57cbc4ee3c86db63f8570ef412706901a508162950a7f985433e6565798"),
    ])
    def test_output_bytes_are_pinned(self, capsys, alpha, seed, digest):
        code, out, _ = run_cli(capsys, "partition", "--config", FL_DEMO,
                               "--alpha", alpha, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOptimize:
    def test_table_fixture_ranking(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--config", FL_DEMO,
                               "--fixtures", GRID_TABLE)
        assert code == 0
        data = json.loads(out)
        assert data["target_accuracy"] == 0.60
        assert len(data["cells"]) == 40
        winner = data["winner"]
        assert winner["clients_per_round"] == 1
        assert winner["local_epochs"] == 1
        assert winner["partition_alpha"] == 1000.0
        assert winner["at_target"]["carbon_cost"] == pytest.approx(3.65, rel=5e-3)
        assert len(data["pareto_stable"]) >= 1

    def test_csv_output_form(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "optimize", "--config", FL_DEMO,
                             "--fixtures", GRID_TABLE, "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert rows[0][:3] == ["clients_per_round", "local_epochs", "partition_alpha"]
        assert len(rows) == 41
        # winner row first: n=1, 1 LE
        assert rows[1][0] == "1" and rows[1][1] == "1"

    def test_all_unreached_exits_3(self, capsys, tmp_path):
        table = {
            "target_accuracy": 0.9,
            "blocks": [{
                "alpha": 1000.0, "local_epochs": 1,
                "rows": [
                    {"clients": 1, "target": None,
                     "stable": {"accuracy": 0.5, "rounds": 10, "co2_g": 1.0,
                                "carbon_cost": 2.0}},
                ],
            }],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "optimize", "--config", FL_DEMO,
                                 "--fixtures", str(path))
        assert code == 3
        assert "no grid cell" in err
        assert json.loads(out)["winner"]["at_target"] is None

    @pytest.mark.parametrize("edit, message", [
        ({"stable": {"accuracy": 0}},
         "results table block 1 row 2 stable 'accuracy' must lie in (0, 1], got 0.0"),
        ({"stable": {"accuracy": 1.5}},
         "results table block 1 row 2 stable 'accuracy' must lie in (0, 1], got 1.5"),
        ({"target": {"co2_g": -1}},
         "results table block 1 row 2 target 'co2_g' must be >= 0, got -1.0"),
        ({"stable": {"rounds": -3}},
         "results table block 1 row 2 stable 'rounds' must be >= 0, got -3"),
        ({"target_accuracy": 1.5},
         "results table 'target_accuracy' must be a number in (0, 1], or 0 for none"),
        ({"target_accuracy": -0.5},
         "results table 'target_accuracy' must be a number in (0, 1], or 0 for none"),
        ({"stable": {"co2_g": 1e308, "accuracy": 1e-10}},
         "carbon cost overflows the float range"),
    ], ids=["stable-accuracy-0", "stable-accuracy-1.5", "target-negative-co2",
            "stable-negative-rounds", "target-accuracy-1.5", "target-accuracy-negative",
            "carbon-cost-overflow"])
    def test_bad_table_value_exits_1_with_one_line_and_no_file(self, capsys, tmp_path,
                                                               edit, message):
        table = json.loads(Path(GRID_TABLE).read_text())
        if "target_accuracy" in edit:
            table.update(edit)
        else:
            row = table["blocks"][1]["rows"][2]
            for point, values in edit.items():
                row[point].update(values)
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(table))
        out_path = tmp_path / "grid.json"
        code, out, err = run_cli(capsys, "optimize", "--config", FL_DEMO,
                                 "--fixtures", str(bad), "--out", str(out_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_live_simulation_grid(self, capsys, tmp_path):
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        raw["fl"]["pool_size"] = 4
        raw["fl"]["clients_per_round"] = 2
        raw["fl"]["rounds"] = 4
        raw["sim"]["target_accuracy"] = 0.5
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "optimize", "--config", str(cfg_path))
        assert code in (0, 3)
        data = json.loads(out)
        # pool of 4 caps the client axis: 4 x {1,5} LE x {iid, non-iid}
        assert len(data["cells"]) == 16

    def test_live_grid_bytes_are_pinned(self, capsys, tmp_path):
        # sha256 of the demo config's live 40-cell grid, recorded with
        # Python 3.11.7 and numpy 2.4.6 before local SGD took its batches
        # with one flat row take per epoch.
        out_path = tmp_path / "grid.json"
        code, _, _ = run_cli(capsys, "optimize", "--config", FL_DEMO,
                             "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "4bdad6d6128e49f81918e9984c91d973f5daad880908cbf529630bcbf5d86a51")


class TestCompare:
    def test_pue_scenarios_side_by_side(self, capsys):
        code, out, _ = run_cli(capsys, "compare",
                               "--config", CEN_SPEECH_WORLD,
                               "--config", CEN_SPEECH_GOOGLE)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["label"] for r in rows] == [
            "centralized_speech_world_france", "centralized_speech_google_france"]
        world = float(rows[0]["co2e_g:france"])
        google = float(rows[1]["co2e_g:france"])
        assert world == pytest.approx(1.4178077333333332, rel=1e-12)
        assert google == pytest.approx(0.9423752000000002, rel=1e-12)

    def test_fl_vs_centralized_with_fixture_schedule(self, capsys):
        code, out, _ = run_cli(capsys, "compare",
                               "--config", FL_NOMINAL,
                               "--config", FL_NOMINAL,
                               "--fixtures", SCHED_16X5,
                               "--fixtures", SCHED_16X5)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["co2e_g:china"]) == pytest.approx(
            11.132097777777778, rel=1e-12)

    def test_single_config_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--config", FL_NOMINAL)
        assert code == 1 and "at least two" in err

    def test_mismatched_grid_regions_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compare",
                               "--config", CEN_SPEECH_WORLD,
                               "--config", FL_NOMINAL,
                               "--fixtures", SCHED_16X5,
                               "--fixtures", SCHED_16X5)
        assert code == 1
        assert "grid regions" in err


def _merge(raw: dict, patch: dict) -> dict:
    """raw with patch written over it, object by object."""
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            _merge(raw[key], value)
        else:
            raw[key] = value
    return raw


_HUGE_GRID = {"grid": {"region": "x", "c_rate_kg_per_kwh": 1e308}}
_SLOW_DEVICE = {"hardware": {"name": "slow", "active_power_w": 4.7, "idle_power_w": 1.35,
                             "time_per_local_epoch_s": 1e307},
                "fl": {"rounds": 3}}


class TestOverflowingPrice:
    """Finite inputs whose price overflows the float range exit 1 with one
    line, print no numpy warning and write no file (inf is no JSON, and
    plot rejects it in a trace)."""

    @pytest.mark.parametrize("command, config, patch, schedule, message", [
        ("estimate", FL_DEMO, {"network": {"router_power_w": 1e308}}, None,
         "communication energy"),
        ("estimate", FL_DEMO, {"fl": {"model_size_mb": 1e308}}, None, "communication energy"),
        ("estimate", FL_ADAPTIVE, {}, SCHED_349X10, "training energy"),
        ("estimate", FL_NOMINAL, {}, SCHED_16X5, "training energy"),
        ("simulate", FL_DEMO, _SLOW_DEVICE, None, "training energy"),
        ("optimize", FL_DEMO, _SLOW_DEVICE, None, "training energy"),
        ("estimate", FL_NOMINAL, _HUGE_GRID, None, "CO2e on grid 'x'"),
        ("compare", FL_NOMINAL, _HUGE_GRID, None, "CO2e on grid 'x'"),
    ], ids=["router-power", "model-size", "adaptive-schedule", "nominal-schedule",
            "simulate-slow-device", "optimize-slow-device", "estimate-grid-rate",
            "compare-grid-rate"])
    def test_exits_1_with_one_line_and_no_file(self, capsys, tmp_path, command, config,
                                               patch, schedule, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_merge(json.loads(Path(config).read_text()), patch)))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "compare":
            argv += ["--config", str(cfg)]
        if schedule:
            fixture = tmp_path / "schedule.json"
            fixture.write_text(json.dumps(_merge(json.loads(Path(schedule).read_text()),
                                                 {"uniform": {"wall_time_s": 1e308}})))
            argv += ["--fixtures", str(fixture)]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message} overflows the float range\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command, config, local_epochs", [
        ("estimate", FL_NOMINAL, 10),
        ("estimate", FL_NOMINAL, 10 ** 400),
        ("compare", FL_NOMINAL, 10),
        ("estimate", FL_DEMO, 10),
        ("simulate", FL_DEMO, 10),
    ], ids=["estimate-uniform", "estimate-uniform-int-overflow", "compare-uniform",
            "estimate-sim", "simulate"])
    def test_round_wall_time_overflow_names_both_fields(self, capsys, tmp_path, command,
                                                        config, local_epochs):
        # local_epochs x time_per_local_epoch_s is the wall time of every entry
        # of a uniform or simulated schedule.
        patch = {"hardware": {**_SLOW_DEVICE["hardware"], "time_per_local_epoch_s": 1e308},
                 "fl": {"local_epochs": local_epochs}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_merge(json.loads(Path(config).read_text()), patch)))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "compare":
            argv += ["--config", str(cfg)]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: fl.local_epochs x "
                                    "hardware.time_per_local_epoch_s overflows the float range\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("patch", [
        {"epochs": 10 ** 400},
        {"hardware": {"name": "slow-dc", "active_power_w": 300.0, "idle_power_w": 0.0,
                      "time_per_local_epoch_s": 1e308, "kind": "datacenter"}},
    ], ids=["int-epochs", "epoch-time"])
    def test_centralized_run_time_overflow_names_both_fields(self, capsys, tmp_path, patch):
        # epochs x time_per_local_epoch_s is the centralized run's duration,
        # whether the int epoch count or the float product overflows.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_merge(json.loads(Path(CEN_CIFAR).read_text()), patch)))
        code, out, err = run_cli(capsys, "estimate", "--config", str(cfg))
        assert (code, out, err) == (1, "", "error: epochs x "
                                    "hardware.time_per_local_epoch_s overflows the float range\n")

    def test_a_schedule_brings_its_own_wall_times(self, capsys, tmp_path):
        patch = {"hardware": {**_SLOW_DEVICE["hardware"], "time_per_local_epoch_s": 1e308},
                 "fl": {"local_epochs": 10}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_merge(json.loads(Path(FL_NOMINAL).read_text()), patch)))
        code, out, err = run_cli(capsys, "estimate", "--config", str(cfg),
                                 "--fixtures", SCHED_16X5)
        assert (code, err) == (0, "")
        assert json.loads(out)["training_wh"] == pytest.approx(11.422222222222222, rel=1e-12)

    def test_json_output_refuses_inf_and_nan(self):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._json_text({"co2e_g": value})


class TestPlot:
    def test_trace_to_energy_columns(self, capsys, tmp_path):
        base = tmp_path / "run"
        run_cli(capsys, "simulate", "--config", FL_DEMO, "--out", str(base))
        code, out, _ = run_cli(capsys, "plot", "--fixtures",
                               str(tmp_path / "run.csv"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# round cumulative_wh"
        assert len(lines) >= 2

    def test_trace_with_config_prices_in_grams(self, capsys, tmp_path):
        base = tmp_path / "run"
        run_cli(capsys, "simulate", "--config", FL_DEMO, "--out", str(base))
        _, wh_out, _ = run_cli(capsys, "plot", "--fixtures", str(tmp_path / "run.csv"))
        code, g_out, _ = run_cli(capsys, "plot", "--fixtures",
                                 str(tmp_path / "run.csv"), "--config", FL_DEMO)
        assert code == 0
        assert g_out.splitlines()[0] == "# round cumulative_g"
        wh = [float(ln.split()[1]) for ln in wh_out.splitlines()[1:]]
        g = [float(ln.split()[1]) for ln in g_out.splitlines()[1:]]
        # france grid: grams = Wh x 0.0790
        for a, b in zip(wh, g):
            assert b == pytest.approx(a * 0.0790, rel=1e-12)

    def test_grid_output_to_scatter_columns(self, capsys, tmp_path):
        out_path = tmp_path / "grid.json"
        run_cli(capsys, "optimize", "--config", FL_DEMO, "--fixtures",
                GRID_TABLE, "--out", str(out_path))
        code, out, _ = run_cli(capsys, "plot", "--fixtures", str(out_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# co2e_g accuracy"
        assert len(lines) == 41

    def test_emission_report_to_series(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "estimate", "--config", FL_NOMINAL, "--fixtures",
                SCHED_16X5, "--out", str(report_path))
        code, out, _ = run_cli(capsys, "plot", "--fixtures", str(report_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# series co2e_g"
        assert float(lines[1].split()[1]) == pytest.approx(11.132097777777778,
                                                           rel=1e-12)

    def test_plot_without_fixtures_rejected(self, capsys):
        code, _, err = run_cli(capsys, "plot")
        assert code == 1 and "fixtures" in err


class TestParser:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            outputs = [run_cli(capsys, "estimate", "--config", CEN_CIFAR) for _ in range(2)]
            with pytest.raises(SystemExit):
                main(["estimate"])
            assert "required: --config" in capsys.readouterr().err
            outputs.append(run_cli(capsys, "estimate", "--config", CEN_CIFAR))
            # A repeatable option starts empty on every call.
            again = [cli._parser().parse_args(["compare", "--config", "a", "--config", "b"])
                     for _ in range(2)]
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3
        assert again[0].config == again[1].config == ["a", "b"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--config", "/nonexistent.json")
        assert code == 2
        assert "i/o error" in err

    def test_invalid_config_value_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "mode": "centralized", "hardware": "v100-cifar10",
            "grid": "france", "pue": 0.9, "epochs": 1,
        }))
        code, _, err = run_cli(capsys, "estimate", "--config", str(bad))
        assert code == 1
        assert "pue must be >= 1.0" in err

    @pytest.mark.parametrize("block, key", [
        ("fl", "pool_size"), ("fl", "rounds"), ("sim", "classes"),
        ("sim", "samples_per_client"), ("sim", "hidden_units"),
    ])
    def test_boolean_for_an_integer_is_validation_error(self, capsys, tmp_path,
                                                        block, key):
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        raw[block][key] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad),
                               "--out", str(tmp_path / "run"))
        assert code == 1
        assert f"{block}.{key} must be an integer" in err

    @pytest.mark.parametrize("schedule, message", [
        ({"rounds": 16, "participation": None}, "must be a list"),
        ({"rounds": 16, "participation": [5]}, "entry 0 must be an object"),
        ({"rounds": 16, "uniform": 3}, "'uniform' must be an object"),
        ({"rounds": 16, "uniform": {"clients_per_round": 5, "wall_time_s": "51.4",
                                    "hardware": "tx2-nominal"}}, "wall_time_s"),
        ({"rounds": 1, "participation": [{"round": 0, "client": 0, "wall_time_s": "1",
                                          "hardware": "tx2-nominal"}]}, "wall_time_s"),
        ({"rounds": "16", "uniform": {"clients_per_round": 5, "wall_time_s": 51.4,
                                      "hardware": "tx2-nominal"}}, "rounds"),
        ({"rounds": 1, "participation": [{"round": 0, "client": 0, "wall_time_s": 1.0}]},
         "entry 0 is missing 'hardware'"),
        ({"rounds": 16, "uniform": {"clients_per_round": 5, "wall_time_s": 51.4}},
         "missing 'hardware'"),
        ({"rounds": 1, "participation": [{"round": False, "client": 0, "wall_time_s": 1.0,
                                          "hardware": "tx2-nominal"}]}, "round_index"),
        ({"rounds": 1, "participation": [{"round": 0, "client": True, "wall_time_s": 1.0,
                                          "hardware": "tx2-nominal"}]}, "client_id"),
        ({"rounds": 2, "participation": [
            {"round": 0, "client": 0, "wall_time_s": 1.0, "hardware": "tx2-nominal"},
            {"round": 1, "client": 0, "wall_time_s": -1.0, "hardware": "tx2-nominal"}]},
         "error: participation entry 1: wall_time_s must be finite and > 0\n"),
        ({"rounds": 2, "participation": [
            {"round": 0, "client": 0, "wall_time_s": 1.0, "hardware": "tx2-nominal"},
            {"round": 1, "client": 0, "wall_time_s": 1.0, "hardware": "tx2-mnist"}]},
         "error: participation entry 1: unknown hardware 'tx2-mnist'\n"),
        ({"rounds": 1, "participation": [{"round": 0, "client": 0, "wall_time_s": 1.0,
                                          "hardware": "tx2-nominal", "typo": 3}]},
         "error: participation entry 0 has unknown keys: ['typo']\n"),
        ({"rounds": 16, "uniform": {"clients_per_round": 5, "wall_time_s": 51.4,
                                    "hardware": "tx2-nominal"}, "participation": []},
         "error: schedule takes 'participation' or 'uniform', not both\n"),
        ({"rounds": 1, "participation": [
            {"round": 0, "client": 1, "wall_time_s": 1.0, "hardware": "tx2-nominal"},
            {"round": 0, "client": 1, "wall_time_s": 1.0, "hardware": "tx2-nominal"}]},
         "error: participation entry 1: duplicate of entry 0 (round 0, client 1)\n"),
        ({"rounds": 1, "participation": [{"round": 3, "client": 0, "wall_time_s": 1.0,
                                          "hardware": "tx2-nominal"}]},
         "error: participation entry 0: round 3 outside executed range [0, 1)\n"),
        ({"rounds": 1, "participation": [
            {"round": 0, "client": 0, "wall_time_s": 1.0, "hardware": "tx2-nominal"},
            {"round": 0, "client": 2**63, "wall_time_s": 1.0, "hardware": "tx2-nominal"}]},
         "error: participation entry 1: client_id must be an integer in [0, 2**63)\n"),
        ({"rounds": 10**400, "participation": [{"round": 10**400, "client": 0,
                                                "wall_time_s": 1.0,
                                                "hardware": "tx2-nominal"}]},
         "error: participation entry 0: round_index must be an integer in [0, 2**63)\n"),
        # Above float max, yet it rounds to float max as a float64.
        ({"rounds": 1, "participation": [{"round": 0, "client": 0,
                                          "wall_time_s": int(sys.float_info.max) + 1,
                                          "hardware": "tx2-nominal"}]},
         "error: participation entry 0: wall_time_s must be finite and > 0\n"),
    ], ids=["participation-null", "item-not-object", "uniform-not-object",
            "uniform-string-wall-time", "entry-string-wall-time",
            "uniform-string-rounds", "entry-missing-hardware",
            "uniform-missing-hardware", "boolean-round", "boolean-client",
            "second-entry-negative-wall-time", "second-entry-unknown-hardware",
            "entry-unknown-key", "uniform-and-participation", "duplicate-entry",
            "round-outside-run", "client-beyond-int64", "round-beyond-int64",
            "int-wall-time-above-float-max"])
    def test_malformed_schedule_is_validation_error(self, capsys, tmp_path,
                                                    schedule, message):
        bad = tmp_path / "schedule.json"
        bad.write_text(json.dumps(schedule))
        code, _, err = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                               "--fixtures", str(bad))
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("uniform, rounds, message", [
        ({"clients_per_round": -4, "wall_time_s": "abc"}, 3,
         "error: schedule 'uniform': clients_per_round must be an integer >= 0\n"),
        ({"clients_per_round": 2.5, "wall_time_s": 51.4}, 16,
         "error: schedule 'uniform': clients_per_round must be an integer >= 0\n"),
        ({"clients_per_round": 0, "wall_time_s": "abc"}, 16,
         "error: schedule 'uniform': wall_time_s must be finite and > 0\n"),
        ({"clients_per_round": 5, "wall_time_s": -1.0}, 16,
         "error: schedule 'uniform': wall_time_s must be finite and > 0\n"),
        ({"clients_per_round": 0, "wall_time_s": 51.4}, 10**12,
         "schedule has 1000000000000 rounds"),
        ({"clients_per_round": 10**10, "wall_time_s": 51.4}, 0,
         "schedule has 0 rounds"),
        ({"clients_per_round": 10**400, "wall_time_s": 51.4}, 0,
         "schedule has 0 rounds"),
        ({"clients_per_round": 5, "wall_time_s": 51.4}, 10**8,
         "exceeds the cap of 500000 entries"),
        ({"clients_per_round": 5, "wall_time_s": 51.4, "extra": 1}, 16,
         "error: schedule 'uniform' has unknown keys: ['extra']\n"),
    ], ids=["negative-clients", "fractional-clients", "string-wall-time-no-clients",
            "negative-wall-time", "zero-clients-huge-rounds", "zero-rounds-huge-clients",
            "zero-rounds-clients-beyond-int64", "entries-above-cap",
            "unknown-key"])
    def test_malformed_uniform_schedule_is_validation_error(self, capsys, tmp_path,
                                                            uniform, rounds, message):
        bad = tmp_path / "schedule.json"
        bad.write_text(json.dumps({"rounds": rounds,
                                   "uniform": {**uniform, "hardware": "tx2-nominal"}}))
        code, _, err = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                               "--fixtures", str(bad))
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("prior, line", [
        ([0.2] * 10,
         "error: sim.prior: prior proportions must sum to 1, got 1.9999999999999998\n"),
        ([0.0] + [0.125] * 8 + [0.0],
         "error: sim.prior: prior proportions must be finite and > 0\n"),
    ], ids=["sum-not-one", "zero-entry"])
    @pytest.mark.parametrize("argv", [
        ["estimate", "--fixtures", SCHED_16X5], ["simulate"], ["partition"], ["optimize"],
    ], ids=["estimate-fixtures", "simulate", "partition", "optimize"])
    def test_prior_list_that_cannot_be_drawn_from_fails_at_load(self, capsys, tmp_path,
                                                                prior, line, argv):
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        raw["sim"]["prior"] = prior
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, argv[0], "--config", str(bad), *argv[1:],
                                 "--out", str(out_path))
        assert (code, out, err) == (1, "", line)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("argv", [
        ["estimate"], ["simulate"], ["partition"], ["optimize"],
    ], ids=["estimate", "simulate", "partition", "optimize"])
    def test_empirical_prior_with_an_empty_class_names_sim_prior(self, capsys, tmp_path,
                                                                 argv):
        # 20 samples over 30 classes: the train split lacks some class.
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        raw["sim"].update(prior="empirical", classes=30, n_samples=20)
        raw["fl"].update(pool_size=2, clients_per_round=1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, argv[0], "--config", str(bad),
                                 "--out", str(tmp_path / "out"))
        assert (code, out, err) == (
            1, "", "error: sim.prior: 'empirical' finds no train sample of class 6\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["partition"], ["partition", "--alpha", "5e-324"],
    ], ids=["simulate", "partition", "partition-alpha-flag"])
    def test_alpha_whose_concentrations_underflow_names_sim_alpha(self, capsys, tmp_path,
                                                                  argv):
        # 5e-324 is finite and > 0, but 5e-324 * 0.1 rounds to 0.
        raw = json.loads((CONFIGS / "fl_sim_small_france.json").read_text())
        if "--alpha" not in argv:
            raw["sim"]["alpha"] = 5e-324
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, argv[0], "--config", str(bad), *argv[1:],
                                 "--out", str(tmp_path / "out"))
        assert (code, out, err) == (
            1, "", "error: sim.alpha 5e-324 is too small: every Dirichlet concentration "
                   "must be finite and > 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_uniform_schedule_with_a_bad_rounds_names_rounds(self, capsys, tmp_path):
        raw = json.loads(Path(SCHED_16X5).read_text())
        raw["rounds"] = "16"
        bad = tmp_path / "schedule.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                                 "--fixtures", str(bad), "--out", str(tmp_path / "out"))
        assert (code, out, err) == (1, "", "error: rounds must be an integer >= 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["schedule.json"]

    def test_declared_rounds_above_the_entry_cap_are_validation_error(
            self, capsys, tmp_path):
        raw = json.loads((CONFIGS / "fl_tx2_nominal_china.json").read_text())
        raw["fl"]["rounds"] = 10**8
        big = tmp_path / "big.json"
        big.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "estimate", "--config", str(big))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds the cap of 500000 entries" in err

    def test_zero_declared_rounds_with_a_huge_pool_price_to_zero(self, capsys, tmp_path):
        raw = json.loads((CONFIGS / "fl_tx2_nominal_china.json").read_text())
        raw["fl"].update(rounds=0, pool_size=10**10, clients_per_round=10**10)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 0 and json.loads(out)["training_wh"] == 0.0

    @pytest.mark.parametrize("command, table, message", [
        ("plot", {"cells": [5]}, "cell 0 needs a 'stable' object"),
        ("plot", {"cells": 5}, "'cells' must be a list"),
        ("plot", {"cells": [{"stable": {"co2e_g": 1.0}}]}, "'accuracy'"),
        ("optimize", [1, 2], "'blocks' list"),
        ("optimize", {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [5]}]},
         "row 0 must be an object"),
        ("optimize", {"target_accuracy": None, "blocks": []}, "'target_accuracy'"),
    ], ids=["plot-cell-not-object", "plot-cells-not-list", "plot-stable-lacks-accuracy",
            "optimize-table-is-list", "optimize-row-not-object", "optimize-null-target"])
    def test_malformed_fixture_table_is_validation_error(self, capsys, tmp_path,
                                                         command, table, message):
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(table))
        code, _, err = run_cli(capsys, command, "--config", FL_DEMO,
                               "--fixtures", str(bad))
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("text, message", [
        ("round,accuracy,cumulative_wh\n1,0.5\n", "trace row 1"),
        ("round,accuracy,cumulative_wh\n1,0.5,0.1\n2,0.6\n", "trace row 2"),
        ("round,accuracy,cumulative_wh\n1,0.5,abc\n", "trace row 1"),
        ("round,accuracy\n1,0.5\n", "trace row 1"),
        ("round,accuracy,cumulative_wh\n1,0.5,nan\n2,0.6,inf\n",
         "trace row 1 needs an integer 'round' and a finite numeric 'cumulative_wh'\n"),
        ("round,accuracy,cumulative_wh\n1,0.5,0.1\n2,0.6,-1e400\n", "trace row 2"),
    ], ids=["short-row", "short-second-row", "non-numeric-energy", "no-energy-column",
            "nan-energy", "infinite-second-energy"])
    def test_malformed_trace_is_validation_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "trace.csv"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "plot", "--fixtures", str(bad))
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("change, message", [
        ({"grid": {"region": 5, "c_rate_kg_per_kwh": 0.1}}, "grid region must be a string"),
        ({"hardware": {"name": 5, "active_power_w": 5.0, "idle_power_w": 1.0,
                       "time_per_local_epoch_s": 1.0}}, "hardware name must be a string"),
        ({"network": {"download_mbps": 100, "upload_mbps": 40, "router_power_w": 10,
                      "region": [1]}}, "network region must be a string"),
        ({"network": {"download_mbps": 100, "upload_mbps": 40, "router_power_w": 10,
                      "regoin": "eu"}}, "network has unknown keys: ['regoin']"),
        ({"network": {"download_mbps": 100, "router_power_w": 10}},
         "network is missing 'upload_mbps'"),
        ({"grid": [{"region": "eu", "c_rate_kg_per_kwh": 0.1, "year": 2020}]},
         "grid has unknown keys: ['year']"),
        ({"grid": {"c_rate_kg_per_kwh": 0.1}}, "grid is missing 'region'"),
        ({"hardware": {"active_power_w": 5.0, "idle_power_w": 1.0,
                       "time_per_local_epoch_s": 1.0, "watts": 3}},
         "hardware has unknown keys: ['watts']"),
        ({"mode": "centralized", "pue": 1.5, "epochs": 1,
          "hardware": {"active_power_w": 5.0, "idle_power_w": 1.0,
                       "time_per_local_epoch_s": 1.0, "kind": "edge"}},
         "error: centralized mode requires hardware of kind 'datacenter', got 'edge'\n"),
    ], ids=["grid-region-number", "hardware-name-number", "network-region-list",
            "network-unknown-key", "network-missing-key", "grid-unknown-key",
            "grid-missing-region", "hardware-unknown-key", "centralized-edge-hardware"])
    def test_malformed_inline_profile_is_validation_error(self, capsys, tmp_path,
                                                          change, message):
        raw = json.loads((CONFIGS / "fl_tx2_nominal_china.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, **change}))
        code, _, err = run_cli(capsys, "estimate", "--config", str(bad),
                               "--fixtures", SCHED_16X5)
        assert code == 1
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("config, change, message", [
        (FL_NOMINAL, {"pue": 0.5, "epochs": -3}, "fl mode does not read ['pue', 'epochs']"),
        (CEN_CIFAR, {"fl": {"pool_size": 100, "clients_per_round": 5, "rounds": 16,
                            "local_epochs": 1},
                     "network": {"download_mbps": 100, "upload_mbps": 40,
                                 "router_power_w": 10}},
         "centralized mode does not read ['network', 'fl']"),
    ], ids=["fl-with-pue-and-epochs", "centralized-with-fl-and-network"])
    def test_block_the_mode_never_reads_is_validation_error(self, capsys, tmp_path,
                                                            config, change, message):
        raw = json.loads(Path(config).read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, **change}))
        code, out, err = run_cli(capsys, "estimate", "--config", str(bad))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("config", [FL_NOMINAL, CEN_CIFAR], ids=["no-sim", "centralized"])
    @pytest.mark.parametrize("argv", [
        ["simulate"], ["partition"], ["partition", "--alpha", "0.1"], ["optimize"],
    ], ids=["simulate", "partition", "partition-alpha", "optimize"])
    def test_config_that_cannot_be_simulated_is_validation_error(self, capsys, tmp_path,
                                                                 argv, config):
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--config", config, "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == "error: simulation needs a federated config with 'fl' and 'sim' objects\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type int64",
         "error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type int64\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy-wording", "no-message"])
    def test_out_of_memory_is_validation_error(self, capsys, tmp_path, monkeypatch,
                                               message, line):
        # The allocation failure is raised, never provoked.
        def run_experiment(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        code, out, err = run_cli(capsys, "simulate", "--config", FL_DEMO,
                                 "--out", str(tmp_path / "run"))
        assert (code, out, err) == (1, "", line)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "estimate", "--config", str(bad))
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--config", "{bad}"],
        ["estimate", "--config", FL_NOMINAL, "--fixtures", "{bad}"],
        ["plot", "--fixtures", "{bad}"],
    ], ids=["estimate-config", "estimate-fixtures", "plot-trace"])
    def test_file_that_is_not_utf8_names_itself(self, capsys, tmp_path, argv):
        # Once only "error: 'utf-8' codec can't decode byte 0xff ...", with
        # no word of which file it was.
        bad = tmp_path / ("bad.csv" if argv[0] == "plot" else "bad.json")
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, *[a.format(bad=bad) for a in argv])
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("command, fixture, message", [
        ("optimize", {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [
            {"clients": 2.7, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}]}]},
         "block 0 row 0 'clients' must be an integer"),
        ("optimize", {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [
            {"clients": True, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}]}]},
         "block 0 row 0 'clients' must be an integer"),
        ("optimize", {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [
            {"clients": "3", "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}}]}]},
         "block 0 row 0 'clients' must be an integer"),
        ("optimize", {"blocks": [{"alpha": 1.0, "local_epochs": 1, "rows": [
            {"clients": 2, "stable": {"rounds": 4, "accuracy": 0.5, "co2_g": 1.5}},
            {"clients": 2, "stable": {"rounds": 5, "accuracy": 0.6, "co2_g": 1.5}}]}]},
         "block 0 row 1 repeats the cell of block 0 row 0"),
        ("plot", {"cells": [{"stable": {"co2e_g": "x", "accuracy": 1}}]},
         "cell 0 needs a 'stable' object with numeric 'co2e_g' and 'accuracy'"),
        ("plot", [{"co2e_g": [1, 2]}], "emission report 1 'co2e_g' must be a number"),
    ], ids=["optimize-fractional-clients", "optimize-boolean-clients",
            "optimize-string-clients", "optimize-repeated-cell", "plot-string-co2e",
            "plot-list-co2e"])
    def test_fixture_values_must_be_numbers(self, capsys, tmp_path, command, fixture,
                                            message):
        bad = tmp_path / "fixture.json"
        bad.write_text(json.dumps(fixture))
        code, out, err = run_cli(capsys, command, "--config", FL_DEMO,
                                 "--fixtures", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command, config", [
        ("simulate", FL_DEMO), ("partition", FL_DEMO), ("optimize", FL_DEMO),
        ("estimate", FL_DEMO), ("estimate", FL_NOMINAL),
    ], ids=["simulate", "partition", "optimize", "estimate-sim", "estimate-declared"])
    def test_negative_seed_is_validation_error(self, capsys, tmp_path, command, config):
        raw = json.loads(Path(config).read_text())
        bad = tmp_path / "seed.json"
        bad.write_text(json.dumps({**raw, "seed": -1}))
        out_path = str(tmp_path / "out.json")
        for argv in (["--config", str(bad)], ["--config", config, "--seed", "-1"]):
            code, _, err = run_cli(capsys, command, *argv, "--out", out_path)
            assert code == 1
            assert err == "error: seed must be an integer >= 0\n"
        assert not (tmp_path / "out.json").exists()

    def test_registry_file_errors_are_validation_errors(self, capsys, tmp_path,
                                                        monkeypatch):
        reg = tmp_path / "reg.json"
        monkeypatch.setenv("FEDCARBON_REGISTRY", str(reg))
        code, _, err = run_cli(capsys, "estimate", "--config", FL_NOMINAL)
        assert code == 1 and "points at a missing file" in err
        reg.write_text("{oops")
        code, _, err = run_cli(capsys, "estimate", "--config", FL_NOMINAL)
        assert code == 1 and err.startswith(f"error: {reg}: not valid JSON")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", FL_DEMO, "--fixtures", "nothing.json"],
        ["partition", "--config", FL_DEMO, "--fixtures", "nothing.json"],
        ["plot", "--fixtures", "trace.csv", "--seed", "4"],
    ], ids=["simulate-fixtures", "partition-fixtures", "plot-seed"])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fedcarbon")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_missing_fixture_file_is_io_error(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--config", FL_NOMINAL,
                             "--fixtures", "/nonexistent.json")
        assert code == 2

    def test_registry_env_extends_the_cli(self, capsys, tmp_path, monkeypatch):
        reg = tmp_path / "reg.json"
        reg.write_text(json.dumps({
            "grid:mars": {"c_rate_kg_per_kwh": 1.0},
        }))
        raw = json.loads((CONFIGS / "fl_tx2_nominal_china.json").read_text())
        raw["grid"] = "mars"
        cfg_path = tmp_path / "mars.json"
        cfg_path.write_text(json.dumps(raw))
        monkeypatch.setenv("FEDCARBON_REGISTRY", str(reg))
        code, out, _ = run_cli(capsys, "estimate", "--config", str(cfg_path),
                               "--fixtures", SCHED_16X5)
        assert code == 0
        report = json.loads(out)
        assert report["grid_region"] == "mars"
        assert report["co2e_g"] == pytest.approx(11.422222222222222, rel=1e-12)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fedcarbon", "estimate",
         "--config", FL_NOMINAL, "--fixtures", SCHED_16X5],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["co2e_g"] == pytest.approx(
        11.132097777777778, rel=1e-12)

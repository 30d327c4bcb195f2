"""Command line behavior: exit codes, determinism, report shape."""

import dataclasses
import json
import re
import struct
import warnings

import numpy as np
import pytest

from ris_lab import cli
from ris_lab.baseline import AOConfig
from ris_lab.config import RunConfig, save_config
from ris_lab.geometry import Point2, Scene, save_scene, select_ris
from ris_lab.policy import TrainConfig
from ris_lab.scenes import SceneGenConfig, random_scene
from ris_lab.vision import load_raster


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def small_config(**overrides):
    defaults = dict(train_samples=40, test_samples=6,
                    train=TrainConfig(epochs=2, batch_size=8, hidden=(24, 12)),
                    ao=AOConfig(restarts=2))
    defaults.update(overrides)
    return RunConfig(**defaults)


def write_scene(path, seed=3, n_ris=6, n_users=4):
    scene = random_scene(SceneGenConfig(n_ris=n_ris, n_users=n_users),
                         np.random.default_rng(seed))
    save_scene(path, scene)
    return scene


# --- argument handling ----------------------------------------------------

def test_unknown_command_exits_2(workdir):
    with pytest.raises(SystemExit) as err:
        cli.main(["polish"])
    assert err.value.code == 2


def test_malformed_scene_reports_line(workdir, capsys):
    (workdir / "bad.json").write_text('{"ris": [[1, 2],\n "users": }')
    rc = cli.main(["select-ris", "--scene", "bad.json", "--via", "geometry"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_scene_file_exits_2(workdir, capsys):
    rc = cli.main(["select-ris", "--scene", "absent.json"])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["select-ris", "--scene", "array.json", "--via", "geometry"],
    ["render", "--scene", "array.json", "--out", "frame.pgm"],
])
def test_non_object_scene_document_exits_2(workdir, capsys, command):
    (workdir / "array.json").write_text("[1, 2]\n")
    assert cli.main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scene document")
    assert err.count("\n") == 1
    assert not (workdir / "frame.pgm").exists()


def test_scene_and_agreement_are_exclusive(workdir):
    write_scene("scene.json")
    assert cli.main(["select-ris", "--scene", "scene.json",
                     "--agreement", "3"]) == 2
    assert cli.main(["select-ris"]) == 2


# --- render ---------------------------------------------------------------

def test_render_writes_frame(workdir, capsys):
    write_scene("scene.json")
    rc = cli.main(["render", "--scene", "scene.json", "--out", "frame.pgm",
                   "--resolution", "256"])
    assert rc == 0
    raster = load_raster(workdir / "frame.pgm")
    assert raster.width == 256
    assert set(np.unique(raster.pixels)) <= {0, 90, 200}
    assert "frame.pgm" in capsys.readouterr().out


# --- select-ris -----------------------------------------------------------

def test_single_surface_selects_zero_on_both_paths(workdir, capsys):
    scene = Scene(ris_positions=(Point2(9.0, 1.0),),
                  users=(Point2(4.0, -3.0), Point2(-5.0, 2.0)))
    save_scene("one.json", scene)
    for via in ("geometry", "vision"):
        rc = cli.main(["select-ris", "--scene", "one.json", "--via", via,
                       "--out", "sel.json"])
        assert rc == 0
        assert json.loads((workdir / "sel.json").read_text())["selected"] == 0
        assert "selected surface 0" in capsys.readouterr().out


def test_vision_and_geometry_agree_on_clean_scene(workdir):
    write_scene("scene.json", seed=11)
    results = {}
    for via in ("geometry", "vision"):
        cli.main(["select-ris", "--scene", "scene.json", "--via", via,
                  "--out", f"{via}.json"])
        results[via] = json.loads((workdir / f"{via}.json").read_text())
    assert results["vision"]["selected"] == results["geometry"]["selected"]
    table = results["geometry"]["cascade_pathloss"]
    assert len(table) == 6
    assert min(range(6), key=table.__getitem__) == results["geometry"]["selected"]


def test_agreement_run_is_deterministic(workdir, capsys):
    save_config("run.json", small_config())
    out = {}
    for name in ("a.json", "b.json"):
        rc = cli.main(["select-ris", "--agreement", "4", "--config",
                       "run.json", "--seed", "5", "--out", name,
                       "--resolution", "384"])
        assert rc == 0
        out[name] = (workdir / name).read_bytes()
    assert out["a.json"] == out["b.json"]
    doc = json.loads(out["a.json"])
    assert doc["scenes"] == 4
    assert 0.0 <= doc["rate"] <= 1.0
    assert "agreement: " in capsys.readouterr().out


def test_agreement_out_details_each_mismatch(workdir, monkeypatch):
    save_config("run.json", small_config())
    # the image chain is replaced by one that picks the next surface on the
    # second scene only
    calls = iter(range(3))

    def fake_vision_select(scene, resolution, half_extent):
        shift = 1 if next(calls) == 1 else 0
        return (select_ris(scene) + shift) % scene.num_ris

    monkeypatch.setattr(cli, "_vision_select", fake_vision_select)
    assert cli.main(["select-ris", "--agreement", "3", "--config", "run.json",
                     "--seed", "5", "--out", "agree.json"]) == 0
    doc = json.loads((workdir / "agree.json").read_text())
    rng = np.random.default_rng(5)
    truth = [select_ris(random_scene(RunConfig().scene, rng)) for _ in range(3)]
    assert doc["agree"] == 2
    assert doc["mismatches"] == [1]
    assert doc["mismatch_detail"] == [
        {"scene": 1, "geometry": truth[1], "vision": (truth[1] + 1) % 6}]


@pytest.mark.parametrize("region,standoff,message", [
    (5.0, 2.0, "could not place a user"),
    (3.0, 2.5, "obstacle_size must stay below region"),
])
def test_infeasible_scene_config_exits_2(workdir, capsys, region, standoff,
                                         message):
    save_config("run.json", small_config())
    doc = json.loads((workdir / "run.json").read_text())
    doc["scene"].update(region=region, standoff=standoff)
    (workdir / "run.json").write_text(json.dumps(doc))
    rc = cli.main(["select-ris", "--agreement", "3", "--config", "run.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


# --- gen-data -------------------------------------------------------------

def test_gen_data_replay_is_byte_identical(workdir):
    save_config("run.json", small_config())
    cli.main(["gen-data", "--config", "run.json", "--role", "train",
              "--out", "a.risd"])
    cli.main(["gen-data", "--config", "run.json", "--role", "train",
              "--out", "b.risd"])
    assert (workdir / "a.risd").read_bytes() == (workdir / "b.risd").read_bytes()


def test_gen_data_both_roles_and_out_conflict(workdir):
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json",
                     "--out", "x.risd"]) == 2


def test_gen_data_writes_both_splits(workdir, capsys):
    save_config("run.json", small_config())
    rc = cli.main(["gen-data", "--config", "run.json"])
    assert rc == 0
    assert (workdir / "train.risd").exists()
    assert (workdir / "test.risd").exists()
    text = capsys.readouterr().out
    assert "train: 40 samples" in text
    assert "test: 6 samples" in text


def test_verbose_gen_data_logs_one_line_per_split(workdir, capsys):
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json"]) == 0
    quiet = capsys.readouterr()
    written = {p.name: p.read_bytes() for p in workdir.glob("*.risd*")}
    assert len(written) == 4 and quiet.err == ""
    assert cli.main(["-v", "gen-data", "--config", "run.json"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert {p.name: p.read_bytes() for p in workdir.glob("*.risd*")} == written
    lines = loud.err.splitlines()
    assert len(lines) == 2
    for line, role, count in zip(lines, ("train", "test"), (40, 6)):
        head, hist = line.split(" selected surfaces per index ")
        assert head.startswith(f"INFO ris_lab.datagen: {role}: {count} "
                               "samples in ")
        chosen = json.loads(written[f"{role}.risd.json"])["selected_surfaces"]
        assert json.loads(hist) == [chosen.count(l) for l in range(6)]


# --- train / benchmark ----------------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen -> train -> benchmark chain shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = small_config()
    paths = {
        "config": root / "run.json",
        "train": root / str(cfg.dataset_path),
        "test": root / str(cfg.test_dataset_path),
        "model": root / str(cfg.checkpoint_path),
        "report": root / str(cfg.report_path),
    }
    cfg = dataclasses.replace(
        cfg, dataset_path=str(paths["train"]),
        test_dataset_path=str(paths["test"]),
        checkpoint_path=str(paths["model"]), report_path=str(paths["report"]))
    save_config(paths["config"], cfg)
    arg = ["--config", str(paths["config"])]
    assert cli.main(["gen-data"] + arg) == 0
    assert cli.main(["train"] + arg) == 0
    assert cli.main(["benchmark"] + arg) == 0
    return cfg, paths


def test_train_missing_dataset_exits_2(workdir, capsys):
    save_config("run.json", small_config())
    assert cli.main(["train", "--config", "run.json"]) == 2
    assert "train.risd" in capsys.readouterr().err


@pytest.mark.parametrize("column,value,message", [
    (0, np.nan, "H has non-finite entries"),
    ("sigma2", -1.0, "sigma2 must be positive"),
])
def test_train_rejects_corrupt_dataset_values(workdir, capsys, column, value,
                                              message):
    # a dataset whose bytes parse but whose values are unusable: one
    # sample's first H entry, or its first noise power, is overwritten
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json", "--role", "train"]) == 0
    path = workdir / "train.risd"
    raw = bytearray(path.read_bytes())
    k, n, nt, s = struct.unpack("<IIII", raw[8:24])
    block = np.frombuffer(raw, dtype="<f8", offset=24).reshape(s, -1).copy()
    if column == "sigma2":
        column = 2 * (n * nt + k * n + k * nt)
    block[3, column] = value
    path.write_bytes(bytes(raw[:24]) + block.tobytes())
    capsys.readouterr()
    assert cli.main(["train", "--config", "run.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_train_stops_on_a_non_finite_loss(workdir, capsys):
    # one sample's user weights are finite but so large that its weighted
    # sum rate, and so the loss of its minibatch, overflows
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json", "--role", "train"]) == 0
    path = workdir / "train.risd"
    raw = bytearray(path.read_bytes())
    k, n, nt, s = struct.unpack("<IIII", raw[8:24])
    block = np.frombuffer(raw, dtype="<f8", offset=24).reshape(s, -1).copy()
    block[3, 2 * (n * nt + k * n + k * nt) + k:] = 1e308
    path.write_bytes(bytes(raw[:24]) + block.tobytes())
    capsys.readouterr()
    # the overflow is reported by the error line alone, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["train", "--config", "run.json"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training loss is -inf at epoch 1, batch [1-5]\n",
                        err), err
    assert not (workdir / "model.rism").exists()


def test_checkpoint_written_with_loss_log(pipeline):
    cfg, paths = pipeline
    assert paths["model"].exists()
    sidecar = json.loads((paths["model"].with_suffix(".rism.json")).read_text())
    log = sidecar["loss_log"]
    assert len(log) == cfg.train.epochs
    assert all(isinstance(v, float) for v in log)


def test_train_replay_is_byte_identical(workdir):
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json",
                     "--role", "train"]) == 0
    assert cli.main(["train", "--config", "run.json", "--out", "a.rism"]) == 0
    assert cli.main(["train", "--config", "run.json", "--out", "b.rism"]) == 0
    assert (workdir / "a.rism").read_bytes() == (workdir / "b.rism").read_bytes()
    assert (workdir / "a.rism.json").read_text() == \
        (workdir / "b.rism.json").read_text()


def test_verbose_flag_logs_training_epochs_on_stderr(workdir, capsys):
    save_config("run.json", small_config())
    assert cli.main(["gen-data", "--config", "run.json",
                     "--role", "train"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", "run.json", "--out", "quiet.rism"]) == 0
    quiet = capsys.readouterr()
    assert "epoch 1/" not in quiet.err
    assert cli.main(["-v", "train", "--config", "run.json",
                     "--out", "loud.rism"]) == 0
    loud = capsys.readouterr()
    assert "epoch 1/2" in loud.err and "epoch 2/2" in loud.err
    assert loud.err.count("gradient norm ") == 2
    assert "epoch 1/" not in loud.out
    for suffix in (".rism", ".rism.json"):
        assert (workdir / f"quiet{suffix}").read_bytes() == \
            (workdir / f"loud{suffix}").read_bytes()


def test_report_has_three_method_rows(pipeline):
    _, paths = pipeline
    doc = json.loads(paths["report"].read_text())
    assert sorted(doc["primary"]["mean_rates"]) == ["ao-25", "ao-50", "dnn"]
    assert sorted(doc["timing"]["per_sample_seconds"]) == \
        ["ao-25", "ao-50", "dnn"]
    assert doc["primary"]["samples"] == 6


def test_report_orderings(pipeline):
    _, paths = pipeline
    rates = json.loads(paths["report"].read_text())["primary"]["mean_rates"]
    assert rates["ao-50"] >= rates["ao-25"]
    times = json.loads(paths["report"].read_text())["timing"]
    assert all(v > 0.0 for v in times["per_sample_seconds"].values())


def test_benchmark_primary_section_replays_identically(pipeline, capsys):
    cfg, paths = pipeline
    first = json.loads(paths["report"].read_text())
    rc = cli.main(["benchmark", "--config", str(paths["config"]),
                   "--out", str(paths["report"].parent / "again.json")])
    assert rc == 0
    again = json.loads((paths["report"].parent / "again.json").read_text())
    assert again["primary"] == first["primary"]
    assert again["primary_sha256"] == first["primary_sha256"]
    text = capsys.readouterr().out
    assert "dnn/ao-50 rate ratio" in text
    assert "speedup" in text


def test_benchmark_dim_mismatch_exits_2(pipeline, workdir, capsys):
    cfg, paths = pipeline
    other = RunConfig(
        system=dataclasses.replace(cfg.system, users=2),
        scene=dataclasses.replace(cfg.scene, n_users=2),
        train=cfg.train, ao=cfg.ao, train_samples=10, test_samples=4,
        checkpoint_path=str(paths["model"]))
    save_config("bad.json", other)
    assert cli.main(["gen-data", "--config", "bad.json",
                     "--role", "test", "--out", "small.risd"]) == 0
    other = dataclasses.replace(other, test_dataset_path="small.risd")
    save_config("bad.json", other)
    rc = cli.main(["benchmark", "--config", "bad.json"])
    assert rc == 2
    assert "do not match" in capsys.readouterr().err


def test_benchmark_zero_sample_dataset_exits_2(pipeline, workdir, capsys):
    # a test dataset that parses but whose header declares no samples
    cfg, paths = pipeline
    raw = paths["test"].read_bytes()
    (workdir / "empty.risd").write_bytes(raw[:20] + struct.pack("<I", 0))
    sidecar = paths["test"].with_name(paths["test"].name + ".json")
    (workdir / "empty.risd.json").write_text(sidecar.read_text())
    save_config("empty.json", dataclasses.replace(
        cfg, test_dataset_path="empty.risd", report_path="empty-report.json"))
    capsys.readouterr()
    assert cli.main(["benchmark", "--config", "empty.json"]) == 2
    assert capsys.readouterr().err == "error: all dimensions must be at least 1\n"
    assert not (workdir / "empty-report.json").exists()


# --- report helpers -------------------------------------------------------

def test_report_validation():
    with pytest.raises(ValueError):
        cli.BenchmarkReport(mean_rates={"dnn": 1.0},
                            per_sample_seconds={"dnn": 0.1},
                            samples=0, config_sha256="x")
    with pytest.raises(ValueError):
        cli.BenchmarkReport(mean_rates={"dnn": 1.0},
                            per_sample_seconds={"dnn": 0.0},
                            samples=3, config_sha256="x")
    with pytest.raises(ValueError):
        cli.BenchmarkReport(mean_rates={"dnn": 1.0},
                            per_sample_seconds={"ao-25": 0.1},
                            samples=3, config_sha256="x")


def test_table_is_aligned():
    report = cli.BenchmarkReport(
        mean_rates={"dnn": 34.4413, "ao-25": 37.8301, "ao-50": 38.0222},
        per_sample_seconds={"dnn": 2e-5, "ao-25": 0.9, "ao-50": 1.8},
        samples=200, config_sha256="f" * 64)
    lines = cli.format_table(report).splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("method")
    assert {line.split()[0] for line in lines[2:]} == {"dnn", "ao-25", "ao-50"}
    # every rate sits in the same column
    col = lines[0].index("mean rate")
    assert all(line[col] != " " for line in lines[2:])

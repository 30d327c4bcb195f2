"""Atomic artifact writes: an interrupted write leaves the earlier files.

Every writer is run twice into the same directory; the second run fails
partway through writing one of its files (a short write followed by a
disk-full error). The directory must then hold exactly the first run's
files, byte for byte, with no temporary file left behind.
"""

import errno
import os

import numpy as np
import pytest

from ris_lab import cli, fileio
from ris_lab import policy as pl
from ris_lab import transmit as tm
from ris_lab.config import RunConfig, save_config
from ris_lab.geometry import Point2
from ris_lab.vision import Raster, load_raster, save_raster


def channel_batch(seed):
    rng = np.random.default_rng(seed)
    sets = [tm.sample_channels(1.0, np.ones(2), np.ones(2), (3, 2), rng,
                               eta=0.0) for _ in range(4)]
    return tm.ChannelBatch.from_sets(sets)


def raster(seed):
    rng = np.random.default_rng(seed)
    return Raster(pixels=rng.integers(0, 256, (6, 5), dtype=np.uint8),
                  meters_per_pixel=0.5, world_origin=Point2(-1.0, 2.0))


# name -> (write version v into path, number of files one write produces)
WRITERS = {
    "dataset": (lambda path, v: tm.save_dataset(path, channel_batch(v),
                                                meta={"version": v}), 2),
    "checkpoint": (lambda path, v: pl.save_params(
        path, pl.init_params((2, 3, 2), (4,), np.random.default_rng(v)),
        meta={"version": v}), 2),
    "raster": (lambda path, v: save_raster(path, raster(v)), 2),
    "report": (lambda path, v: cli._write_json(path, {"version": v}), 1),
    "config": (lambda path, v: save_config(path, RunConfig(seed=v)), 1),
}


def snapshot(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


class ShortWrite:
    """A file that writes half of what it is given, then runs out of space."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_on_open(monkeypatch, which):
    """Make the which-th file fileio opens fail partway through writing."""
    opened = []

    def fake_open(path, mode="r"):
        opened.append(path)
        fh = open(path, mode)
        return ShortWrite(fh) if len(opened) == which else fh

    monkeypatch.setattr(fileio, "open", fake_open, raising=False)


@pytest.mark.parametrize("name,which", [
    (name, which) for name, (_, files) in WRITERS.items()
    for which in range(1, files + 1)])
def test_interrupted_write_keeps_earlier_artifacts(tmp_path, monkeypatch,
                                                   name, which):
    write, _ = WRITERS[name]
    path = tmp_path / "artifact"
    write(path, 1)
    before = snapshot(tmp_path)
    fail_on_open(monkeypatch, which)
    with pytest.raises(OSError, match="No space left"):
        write(path, 2)
    assert snapshot(tmp_path) == before
    monkeypatch.undo()
    write(path, 2)
    assert snapshot(tmp_path).keys() == before.keys()
    assert snapshot(tmp_path) != before


@pytest.mark.parametrize("name", [n for n, (_, files) in WRITERS.items()
                                  if files == 2])
def test_sidecar_is_replaced_before_the_binary(tmp_path, monkeypatch, name):
    write, _ = WRITERS[name]
    moved = []
    real_replace = os.replace

    def record(src, dst):
        moved.append(os.path.basename(os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", record)
    write(tmp_path / "artifact", 1)
    assert moved == ["artifact.json", "artifact"]


def test_written_artifacts_read_back(tmp_path):
    batch = channel_batch(3)
    tm.save_dataset(tmp_path / "d.risd", batch)
    loaded, sidecar = tm.load_dataset(tmp_path / "d.risd")
    assert np.array_equal(loaded.H, batch.H) and sidecar["samples"] == 4
    frame = raster(4)
    save_raster(tmp_path / "f.pgm", frame)
    assert np.array_equal(load_raster(tmp_path / "f.pgm").pixels, frame.pixels)

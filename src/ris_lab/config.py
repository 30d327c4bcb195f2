"""Run configuration: one JSON document that pins every knob of a run.

The defaults reproduce the reference setup: four users, six surfaces of
eight elements, eight transmit antennas, unit power budget, a 20 dB mean
link-power-to-noise ratio, ten thousand training samples and two hundred
held-out samples. A config hashes to a stable identifier so reports can
say exactly which settings produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from . import fileio
from .baseline import AOConfig
from .policy import TrainConfig
from .scenes import SceneGenConfig


@dataclass(frozen=True)
class SystemConfig:
    """Physical dimensions and channel statistics."""

    users: int = 4
    elements: int = 8       # reflecting elements per surface
    antennas: int = 8       # transmit antennas
    surfaces: int = 6       # surfaces placed around the transmitter
    p_max: float = 1.0
    link_budget_db: float = 20.0  # target mean channel power over noise
    noise_power: float = 1.0
    eta: float = 2.0        # pathloss exponent
    kappa: float = 0.5      # per-meter obstacle attenuation

    def __post_init__(self):
        if min(self.users, self.elements, self.antennas, self.surfaces) < 1:
            raise ValueError("all dimensions must be at least 1")
        if self.p_max <= 0.0 or self.noise_power <= 0.0:
            raise ValueError("p_max and noise_power must be positive")
        if self.eta < 0.0 or self.kappa < 0.0:
            raise ValueError("eta and kappa must be nonnegative")


def _default_scene():
    return SceneGenConfig(n_ris=6, n_users=4)


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    scene: SceneGenConfig = field(default_factory=_default_scene)
    train: TrainConfig = field(default_factory=TrainConfig)
    ao: AOConfig = field(default_factory=AOConfig)
    train_samples: int = 10000
    test_samples: int = 200
    seed: int = 0
    dataset_path: str = "train.risd"
    test_dataset_path: str = "test.risd"
    checkpoint_path: str = "model.rism"
    report_path: str = "report.json"

    def __post_init__(self):
        if self.train_samples < 1 or self.test_samples < 1:
            raise ValueError("sample counts must be at least 1")
        if self.scene.n_ris != self.system.surfaces:
            raise ValueError("scene.n_ris must equal system.surfaces")
        if self.scene.n_users != self.system.users:
            raise ValueError("scene.n_users must equal system.users")
        if self.scene.kappa != self.system.kappa:
            raise ValueError("scene.kappa must equal system.kappa")


_SECTIONS = {"system": SystemConfig, "scene": SceneGenConfig,
             "train": TrainConfig, "ao": AOConfig}
_TUPLE_FIELDS = {("scene", "obstacle_size"), ("train", "hidden")}


def config_to_dict(config: RunConfig) -> dict:
    doc = dataclasses.asdict(config)
    for section, key in _TUPLE_FIELDS:
        doc[section][key] = list(doc[section][key])
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    parts = {}
    for name, cls in _SECTIONS.items():
        if name in doc:
            section = dict(doc.pop(name))
            for sec_name, key in _TUPLE_FIELDS:
                if sec_name == name and key in section:
                    section[key] = tuple(section[key])
            parts[name] = cls(**section)
    return RunConfig(**parts, **doc)


def save_config(path, config: RunConfig) -> None:
    fileio.write_files((path, fileio.json_text(config_to_dict(config))))


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def config_hash(config: RunConfig) -> str:
    """sha256 over the canonical JSON encoding."""
    canon = json.dumps(config_to_dict(config), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()

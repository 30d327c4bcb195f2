"""Seeded dataset generation: scenes to pathlosses to channel draws.

Every sample gets its own scene. The surface for each scene is picked by
the geometric rule, its effective pathlosses feed the channel sampler,
and a single scale rho0 (shared by the whole dataset) is calibrated in
closed form so the mean drawn channel power over the noise power lands on
the configured link budget. Per-sample generators are derived from
(seed, role, index), so generation is order-independent and replays are
byte-identical.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .config import RunConfig, config_hash
from .geometry import link_table
from .scenes import random_scene
from .transmit import ChannelBatch, sample_channels, save_dataset

_ROLES = {"train": 0, "test": 1}

log = logging.getLogger(__name__)


def _sample_rng(seed, role_tag, index, stage):
    return np.random.default_rng((seed, role_tag, index, stage))


def scene_pathlosses(scene):
    """Effective pathlosses through the geometrically selected surface:
    (selected index, tr, [ru_k], [tu_k])."""
    links = link_table(scene)
    chosen = links.selected
    return chosen, links.tr[chosen], list(links.ru[chosen]), list(links.tu)


def calibrate_rho0(pathloss_sets, dims, eta, noise_power, target_db):
    """Closed-form scale so the entry-count-weighted mean of
    rho0 * e**(-eta) over all links equals the budget times the noise."""
    n, nt = dims
    total, count = 0.0, 0
    for tr, ru, tu in pathloss_sets:
        total += n * nt * tr ** (-eta)
        total += n * sum(e ** (-eta) for e in ru)
        total += nt * sum(e ** (-eta) for e in tu)
        count += n * nt + n * len(ru) + nt * len(tu)
    mean_gain = total / count
    return 10.0 ** (target_db / 10.0) * noise_power / mean_gain


def empirical_ratio_db(batch: ChannelBatch, noise_power) -> float:
    """Mean drawn channel power over noise, in dB, across every entry."""
    s = len(batch)
    power = (np.abs(batch.H.reshape(s, -1)) ** 2).sum()
    power += (np.abs(batch.h.reshape(s, -1)) ** 2).sum()
    power += (np.abs(batch.g.reshape(s, -1)) ** 2).sum()
    entries = s * (batch.N * batch.NT + batch.K * batch.N + batch.K * batch.NT)
    return 10.0 * np.log10(power / entries / noise_power)


def generate_dataset(config: RunConfig, role="train"):
    """Draw the train or test split. Returns (batch, sidecar metadata)."""
    if role not in _ROLES:
        raise ValueError(f"role must be one of {sorted(_ROLES)}")
    tag = _ROLES[role]
    count = config.train_samples if role == "train" else config.test_samples
    sysc = config.system
    dims = (sysc.elements, sysc.antennas)

    per_scene = [scene_pathlosses(random_scene(
        config.scene, _sample_rng(config.seed, tag, i, 0))) for i in range(count)]
    rho0 = calibrate_rho0([(tr, ru, tu) for _, tr, ru, tu in per_scene],
                          dims, sysc.eta, sysc.noise_power,
                          sysc.link_budget_db)

    sets = []
    for i, (_, tr, ru, tu) in enumerate(per_scene):
        sets.append(sample_channels(
            tr, ru, tu, dims, _sample_rng(config.seed, tag, i, 1),
            rho0=rho0, eta=sysc.eta, sigma2=sysc.noise_power,
            p_max=sysc.p_max))
    batch = ChannelBatch.from_sets(sets)

    meta = {
        "role": role,
        "seed": config.seed,
        "rho0": rho0,
        "eta": sysc.eta,
        "target_ratio_db": sysc.link_budget_db,
        "empirical_ratio_db": empirical_ratio_db(batch, sysc.noise_power),
        "selected_surfaces": [int(c) for c, _, _, _ in per_scene],
        "config_sha256": config_hash(config),
    }
    return batch, meta


def write_dataset(path, config: RunConfig, role="train"):
    """Generate a split and store it; returns the sidecar metadata."""
    started = time.perf_counter()
    batch, meta = generate_dataset(config, role)
    save_dataset(path, batch, meta=meta)
    chosen = meta["selected_surfaces"]
    log.info("%s: %d samples in %.2f s, selected surfaces per index %s",
             role, len(batch), time.perf_counter() - started,
             [chosen.count(l) for l in range(config.scene.n_ris)])
    return meta

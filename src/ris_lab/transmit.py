"""Downlink transmit model for a reflecting-surface-assisted multi-user link.

A transmitter with NT antennas serves K single-antenna users through a
passive reflecting surface with N tunable elements. Per user the effective
row channel combines the direct path with the surface-reflected path,

    f_k = conj(g_k) + conj(h_k) * e^{j phi} @ H

where H is the transmitter-to-surface matrix, h_k the surface-to-user
vector, g_k the direct transmitter-to-user vector, and phi the per-element
phase shifts. Beamformers factor into a power split p (on the simplex
scaled to the budget) and unit-norm MMSE directions recomputed from the
stacked rows. This module provides the typed containers, the channel
sampler, the full-beamformer rate as an independent oracle, the
power-plus-direction objective written once (a forward batched over a
leading sample axis and its closed-form backward, shared by the baseline
optimizer, the training loss and inference), and the dataset file format.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import clinalg, fileio

_BUDGET_TOL = 1e-9
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * np.pi

_MAGIC = b"RISD"
_FORMAT_VERSION = 1


# --- typed containers -------------------------------------------------------------

def _as_float_vec(x, name):
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all channels plus per-user weights and noise.

    H: (N, NT) transmitter to surface. h: (K, N) rows are surface to user k.
    g: (K, NT) rows are direct transmitter to user k. sigma2 and user_weight
    are length-K vectors; p_max is the transmit power budget.
    """

    H: np.ndarray
    h: np.ndarray
    g: np.ndarray
    sigma2: np.ndarray
    user_weight: np.ndarray
    p_max: float = 1.0

    def __post_init__(self):
        H = clinalg.as_cmat(np.asarray(self.H), "H")
        h = clinalg.as_cmat(np.asarray(self.h), "h")
        g = clinalg.as_cmat(np.asarray(self.g), "g")
        sigma2 = _as_float_vec(self.sigma2, "sigma2")
        weight = _as_float_vec(self.user_weight, "user_weight")
        n, nt = H.shape
        k = h.shape[0]
        if k < 1 or n < 1 or nt < 1:
            raise ValueError("all dimensions must be at least 1")
        if h.shape != (k, n):
            raise ValueError(f"h must be (K, N) = ({k}, {n}), got {h.shape}")
        if g.shape != (k, nt):
            raise ValueError(f"g must be (K, NT) = ({k}, {nt}), got {g.shape}")
        if sigma2.shape != (k,) or weight.shape != (k,):
            raise ValueError("sigma2 and user_weight must have length K")
        if np.any(sigma2 <= 0.0):
            raise ValueError("sigma2 must be positive")
        if np.any(weight < 0.0) or weight.sum() <= 0.0:
            raise ValueError("user weights must be nonnegative with positive sum")
        p_max = float(self.p_max)
        if not np.isfinite(p_max) or p_max <= 0.0:
            raise ValueError("p_max must be positive")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "user_weight", weight)
        object.__setattr__(self, "p_max", p_max)

    @property
    def K(self) -> int:
        return self.h.shape[0]

    @property
    def N(self) -> int:
        return self.H.shape[0]

    @property
    def NT(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class PhaseVector:
    """Per-element phase shifts, each in [0, 2*pi)."""

    phi: np.ndarray

    def __post_init__(self):
        phi = _as_float_vec(self.phi, "phi")
        if phi.size < 1:
            raise ValueError("phi must have at least one element")
        if (phi < 0.0).any() or (phi >= _TWO_PI).any():
            raise ValueError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "phi", phi)

    @classmethod
    def wrapped(cls, phi) -> "PhaseVector":
        """Construct from arbitrary angles, reduced modulo 2*pi."""
        raw = np.asarray(phi, dtype=np.float64)
        w = np.mod(raw, _TWO_PI)
        # mod can return exactly 2*pi for tiny negative inputs
        w[w >= _TWO_PI] = 0.0
        return cls(w)

    def unit(self) -> np.ndarray:
        """The unit-modulus reflection coefficients e^{j phi}."""
        return np.exp(1j * self.phi)


@dataclass(frozen=True)
class PowerVector:
    """Per-user transmit powers spending the whole budget."""

    p: np.ndarray
    p_max: float = 1.0

    def __post_init__(self):
        p = _as_float_vec(self.p, "p")
        p_max = float(self.p_max)
        if (p < 0.0).any():
            raise ValueError("powers must be nonnegative")
        if p_max <= 0.0:
            raise ValueError("p_max must be positive")
        if abs(p.sum() - p_max) > _BUDGET_TOL:
            raise ValueError(
                f"powers must sum to the budget: got {p.sum():.12g} vs {p_max:.12g}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_max", p_max)


@dataclass(frozen=True)
class BeamformerSet:
    """Full per-user beamformers, rows w_k of shape (K, NT)."""

    w: np.ndarray
    p_max: float = 1.0

    def __post_init__(self):
        w = clinalg.as_cmat(np.asarray(self.w), "w")
        p_max = float(self.p_max)
        total = float(np.vdot(w, w).real)
        if total > p_max + _BUDGET_TOL:
            raise ValueError(
                f"total beamformer power {total:.12g} exceeds budget {p_max:.12g}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "p_max", p_max)


def _phase_array(phi) -> np.ndarray:
    if isinstance(phi, PhaseVector):
        return phi.phi
    return np.asarray(phi, dtype=np.float64)


def _power_array(p) -> np.ndarray:
    if isinstance(p, PowerVector):
        return p.p
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("powers must be nonnegative")
    return arr


# --- channel generation -----------------------------------------------------------

def sample_channels(pathloss_tr, pathloss_ru, pathloss_tu, dims, rng, *,
                    rho0=1.0, eta=2.0, sigma2=1.0, user_weight=None,
                    p_max=1.0) -> ChannelSet:
    """Draw one channel realization from effective pathlosses.

    Every entry of a link with effective pathloss e is i.i.d. circularly
    symmetric complex Gaussian with variance rho0 * e**(-eta). pathloss_tr
    scales the transmitter-to-surface matrix; pathloss_ru[k] and
    pathloss_tu[k] scale the surface-to-user and direct links of user k.
    dims is (N, NT); K is the length of the per-user pathloss lists.
    """
    e_tr = float(pathloss_tr)
    e_ru = _as_float_vec(pathloss_ru, "pathloss_ru")
    e_tu = _as_float_vec(pathloss_tu, "pathloss_tu")
    if e_tr <= 0.0 or np.any(e_ru <= 0.0) or np.any(e_tu <= 0.0):
        raise ValueError("pathlosses must be positive")
    if e_ru.shape != e_tu.shape:
        raise ValueError("pathloss_ru and pathloss_tu must have equal length")
    k = e_ru.size
    n, nt = int(dims[0]), int(dims[1])
    if k < 1 or n < 1 or nt < 1:
        raise ValueError("all dimensions must be at least 1")
    rho0 = float(rho0)
    eta = float(eta)
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")

    def draw(shape, e):
        scale = np.sqrt(rho0 * e ** (-eta) / 2.0)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    H = draw((n, nt), e_tr)
    h = np.stack([draw((n,), e_ru[i]) for i in range(k)])
    g = np.stack([draw((nt,), e_tu[i]) for i in range(k)])
    sig = np.broadcast_to(np.asarray(sigma2, dtype=np.float64), (k,)).copy()
    if user_weight is None:
        weight = np.ones(k)
    else:
        weight = np.broadcast_to(np.asarray(user_weight, dtype=np.float64), (k,)).copy()
    return ChannelSet(H=H, h=h, g=g, sigma2=sig, user_weight=weight, p_max=p_max)


# --- cascade and beamforming ------------------------------------------------------

def cascade_row(channels: ChannelSet, k: int, phi) -> np.ndarray:
    """Effective row channel f_k = conj(g_k) + conj(h_k) * e^{j phi} @ H."""
    phi_arr = _phase_array(phi)
    reflected = (np.conj(channels.h[k]) * np.exp(1j * phi_arr)) @ channels.H
    return np.conj(channels.g[k]) + reflected


def build_G(channels: ChannelSet, phi) -> np.ndarray:
    """Stack the effective rows of all users into a (K, NT) matrix."""
    phi_arr = _phase_array(phi)
    reflected = (np.conj(channels.h) * np.exp(1j * phi_arr)[None, :]) @ channels.H
    return np.conj(channels.g) + reflected


def mmse_directions(G, sigma2) -> np.ndarray:
    """Unit-norm MMSE beamforming directions for stacked rows G.

    Solves (G G^H + diag(sigma2)) T = G and normalizes conj(T) row-wise;
    row k is the direction w_bar_k.
    """
    G = clinalg.as_cmat(G, "G")
    k = G.shape[0]
    sig = np.broadcast_to(np.asarray(sigma2, dtype=np.float64), (k,))
    A = clinalg.gram(G) + np.diag(sig)
    T = clinalg.solve_hpd(A, G)
    norms = np.sqrt(np.sum(np.abs(T) ** 2, axis=1))
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel rows give zero MMSE directions")
    return np.conj(T) / norms[:, None]


def recover_beamformers(p, directions) -> BeamformerSet:
    """Scale unit directions by the square roots of the allocated powers."""
    if not isinstance(p, PowerVector):
        raise TypeError("recover_beamformers requires a PowerVector")
    w_bar = clinalg.as_cmat(directions, "directions")
    if w_bar.shape[0] != p.p.size:
        raise ValueError("one direction row per power entry required")
    w = np.sqrt(p.p)[:, None] * w_bar
    return BeamformerSet(w=w, p_max=p.p_max)


# --- rates ------------------------------------------------------------------------

def rate(channels: ChannelSet, k: int, beamformers: BeamformerSet, phi) -> float:
    """Information rate of user k under full beamformers, in bits/s/Hz."""
    f = cascade_row(channels, k, phi)
    amps2 = np.abs(f @ beamformers.w.T) ** 2
    own = amps2[k]
    interference = amps2.sum() - own
    return float(np.log2(1.0 + own / (interference + channels.sigma2[k])))


def _herm(x) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


class _Forward(NamedTuple):
    """Intermediates of one objective evaluation, kept for the backward."""

    u: np.ndarray      # conj(h) e^{j phi}, (..., K, N)
    F: np.ndarray      # stacked rows f_k, (..., K, NT)
    A: np.ndarray      # F F^H + diag(sigma2), (..., K, K)
    T: np.ndarray      # A^{-1} F; direction i is conj(t_i) / |t_i|
    d: np.ndarray      # F T^H, d[k, i] = f_k . conj(t_i)
    q: np.ndarray      # |t_i|^2, (..., K)
    gain: np.ndarray   # |f_k . w_bar_i|^2 = |d[k, i]|^2 / q_i
    own: np.ndarray    # p_k gain[k, k]
    den: np.ndarray    # interference plus noise of user k
    rates: np.ndarray  # log2(1 + own / den), (..., K)


def _wsr_forward(channels, p, phi) -> _Forward:
    """The objective's forward pass, batched over any leading sample axes.

    channels is a ChannelSet (no sample axis) or a ChannelBatch (one), with
    p of shape (..., K) and phi of shape (..., N) to match. The rates, the
    AO objective and its gradient, the training loss and policy.infer all
    evaluate the objective here; rate() stays an independent oracle.
    """
    u = np.conj(channels.h) * np.exp(1j * phi)[..., None, :]
    F = np.conj(channels.g) + u @ channels.H
    k = F.shape[-2]
    A = F @ _herm(F) + channels.sigma2[..., None] * np.eye(k)
    T = clinalg.solve_hpd(A, F)
    d = F @ _herm(T)
    q = np.sum(T.real ** 2 + T.imag ** 2, axis=-1)
    if np.any(q == 0.0):
        raise ValueError("degenerate channel rows give zero MMSE directions")
    gain = (d.real ** 2 + d.imag ** 2) / q[..., None, :]
    contrib = gain * p[..., None, :]
    own = np.diagonal(contrib, axis1=-2, axis2=-1)
    den = np.sum(contrib * (1.0 - np.eye(k)), axis=-1) + channels.sigma2
    rates = np.log2(1.0 + own / den)
    return _Forward(u, F, A, T, d, q, gain, own, den, rates)


def _wsr_backward(channels, fw: _Forward, p):
    """Gradients (d/dp, d/dphi) of each sample's weighted sum rate.

    A hand-written reverse pass through _wsr_forward. The solve adjoint is
    U = A^{-1} Tbar, Abar = -U T^H and Fbar += U + (Abar + Abar^H) F,
    which costs one more solve with A.
    """
    k = fw.F.shape[-2]
    off = 1.0 - np.eye(k)
    weight = channels.user_weight[..., :, None]
    # rate_k = log2(den_k + own_k) - log2(den_k)
    cbar = (weight / (fw.den + fw.own)[..., :, None]
            - (weight / fw.den[..., :, None]) * off)
    cbar /= _LN2
    gp = np.sum(cbar * fw.gain, axis=-2)
    gain_bar = cbar * p[..., None, :]
    dbar = (2.0 * gain_bar / fw.q[..., None, :]) * fw.d
    qbar = -np.sum(gain_bar * fw.gain, axis=-2) / fw.q
    Tbar = _herm(dbar) @ fw.F + (2.0 * qbar)[..., None] * fw.T
    U = clinalg.solve_hpd(fw.A, Tbar)
    Abar = -U @ _herm(fw.T)
    Fbar = dbar @ fw.T + U + (Abar + _herm(Abar)) @ fw.F
    ubar = Fbar @ _herm(channels.H)
    gphi = np.sum(ubar * np.conj(fw.u), axis=-2).imag
    return gp, gphi


def user_rates(channels: ChannelSet, p, phi) -> np.ndarray:
    """Per-user rates with MMSE directions recomputed at the given phases."""
    return _wsr_forward(channels, _power_array(p), _phase_array(phi)).rates


def weighted_sum_rate(channels: ChannelSet, p, phi) -> float:
    """The scalar objective: weights dotted with the per-user rates."""
    return float(np.sum(channels.user_weight * user_rates(channels, p, phi)))


def weighted_sum_rate_grads(channels: ChannelSet, p, phi):
    """Exact gradients (d/dp, d/dphi) of weighted_sum_rate at (p, phi)."""
    p_arr = _power_array(p)
    fw = _wsr_forward(channels, p_arr, _phase_array(phi))
    return _wsr_backward(channels, fw, p_arr)


# --- batched containers -------------------------------------------------------------

@dataclass(frozen=True)
class ChannelBatch:
    """A stack of channel realizations sharing dimensions and budget.

    Arrays carry a leading sample axis: H (S, N, NT), h (S, K, N),
    g (S, K, NT), sigma2 and user_weight (S, K).
    """

    H: np.ndarray
    h: np.ndarray
    g: np.ndarray
    sigma2: np.ndarray
    user_weight: np.ndarray
    p_max: float = 1.0

    def __post_init__(self):
        H = np.ascontiguousarray(np.asarray(self.H, dtype=np.complex128))
        h = np.ascontiguousarray(np.asarray(self.h, dtype=np.complex128))
        g = np.ascontiguousarray(np.asarray(self.g, dtype=np.complex128))
        sigma2 = np.ascontiguousarray(np.asarray(self.sigma2, dtype=np.float64))
        weight = np.ascontiguousarray(np.asarray(self.user_weight, dtype=np.float64))
        if H.ndim != 3 or h.ndim != 3 or g.ndim != 3:
            raise ValueError("batch channel arrays must be three dimensional")
        s, n, nt = H.shape
        k = h.shape[1]
        if h.shape != (s, k, n) or g.shape != (s, k, nt):
            raise ValueError("batch array shapes are inconsistent")
        if sigma2.shape != (s, k) or weight.shape != (s, k):
            raise ValueError("sigma2 and user_weight must be (S, K)")
        for name, arr in (("H", H), ("h", h), ("g", g), ("sigma2", sigma2),
                          ("user_weight", weight)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        if np.any(sigma2 <= 0.0):
            raise ValueError("sigma2 must be positive")
        if np.any(weight < 0.0) or np.any(weight.sum(axis=1) <= 0.0):
            raise ValueError("user weights must be nonnegative with positive sum")
        p_max = float(self.p_max)
        if not np.isfinite(p_max) or p_max <= 0.0:
            raise ValueError("p_max must be positive")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "user_weight", weight)
        object.__setattr__(self, "p_max", p_max)

    def __len__(self) -> int:
        return self.H.shape[0]

    @property
    def K(self) -> int:
        return self.h.shape[1]

    @property
    def N(self) -> int:
        return self.H.shape[1]

    @property
    def NT(self) -> int:
        return self.H.shape[2]

    def sample(self, i: int) -> ChannelSet:
        return ChannelSet(H=self.H[i], h=self.h[i], g=self.g[i],
                          sigma2=self.sigma2[i], user_weight=self.user_weight[i],
                          p_max=self.p_max)

    def subset(self, idx) -> "ChannelBatch":
        idx = np.asarray(idx)
        return ChannelBatch(H=self.H[idx], h=self.h[idx], g=self.g[idx],
                            sigma2=self.sigma2[idx],
                            user_weight=self.user_weight[idx], p_max=self.p_max)

    @classmethod
    def from_sets(cls, sets) -> "ChannelBatch":
        sets = list(sets)
        if not sets:
            raise ValueError("cannot build a batch from zero samples")
        p_max = sets[0].p_max
        if any(abs(c.p_max - p_max) > 0.0 for c in sets):
            raise ValueError("all samples in a batch must share p_max")
        return cls(H=np.stack([c.H for c in sets]),
                   h=np.stack([c.h for c in sets]),
                   g=np.stack([c.g for c in sets]),
                   sigma2=np.stack([c.sigma2 for c in sets]),
                   user_weight=np.stack([c.user_weight for c in sets]),
                   p_max=p_max)


def weighted_sum_rate_graph(batch: ChannelBatch, p, phi) -> ad.Tensor:
    """Differentiable weighted sum rate over a batch, shape (S,).

    p is an (S, K) Tensor of powers and phi an (S, N) Tensor of phases;
    the channel arrays enter as constants. One tape node: the value is
    weighted_sum_rate sample by sample, and the backward scales each
    sample's closed-form gradient by its upstream gradient.
    """
    p = ad.as_tensor(p)
    phi = ad.as_tensor(phi)
    s, k, n = batch.h.shape
    if p.data.shape != (s, k):
        raise ValueError(f"p must have shape {(s, k)}, got {p.data.shape}")
    if phi.data.shape != (s, n):
        raise ValueError(f"phi must have shape {(s, n)}, got {phi.data.shape}")
    fw = _wsr_forward(batch, p.data, phi.data)
    out = ad.Tensor(np.sum(batch.user_weight * fw.rates, axis=-1), (p, phi))

    def _bw(g):
        gp, gphi = _wsr_backward(batch, fw, p.data)
        p._accum(g[:, None] * gp)
        phi._accum(g[:, None] * gphi)

    out._backward = _bw
    return out


# --- dataset file format ------------------------------------------------------------

def save_dataset(path, batch: ChannelBatch, meta=None) -> None:
    """Write a channel batch to a binary file plus a JSON sidecar.

    Layout: magic "RISD", then version, K, N, NT and sample count as
    unsigned 32-bit little-endian, then per sample the complex entries of
    H, h_1..h_K, g_1..g_K as interleaved little-endian float64 pairs,
    followed by sigma2 and the user weights as float64. The sidecar at
    path + ".json" records the dimensions, the budget, and caller metadata.
    Both files are replaced atomically, the sidecar first.
    """
    s, k, n, nt = len(batch), batch.K, batch.N, batch.NT
    header = _MAGIC + struct.pack("<IIIII", _FORMAT_VERSION, k, n, nt, s)
    cwidth = n * nt + k * n + k * nt
    block = np.empty((s, 2 * cwidth + 2 * k), dtype="<f8")
    cplx = np.concatenate([batch.H.reshape(s, -1), batch.h.reshape(s, -1),
                           batch.g.reshape(s, -1)], axis=1)
    block[:, :2 * cwidth] = np.ascontiguousarray(cplx.astype("<c16")).view("<f8")
    block[:, 2 * cwidth:2 * cwidth + k] = batch.sigma2
    block[:, 2 * cwidth + k:] = batch.user_weight
    sidecar = {
        "format": "RISD",
        "version": _FORMAT_VERSION,
        "users": k,
        "elements": n,
        "antennas": nt,
        "samples": s,
        "p_max": batch.p_max,
    }
    if meta:
        sidecar.update(meta)
    fileio.write_files((str(path) + ".json", fileio.json_text(sidecar)),
                       (path, [header, block]))


def load_dataset(path):
    """Read a dataset written by save_dataset; returns (batch, sidecar)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a channel dataset (bad magic)")
    version, k, n, nt, s = struct.unpack("<IIIII", raw[4:24])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported dataset version {version}")
    cwidth = n * nt + k * n + k * nt
    row = 2 * cwidth + 2 * k
    expected = 24 + 8 * row * s
    if len(raw) != expected:
        raise ValueError(
            f"{path} is truncated or padded: {len(raw)} bytes, expected {expected}")
    block = np.frombuffer(raw[24:], dtype="<f8").reshape(s, row)
    cplx = np.ascontiguousarray(block[:, :2 * cwidth]).view("<c16")
    sidecar_path = str(path) + ".json"
    if not os.path.exists(sidecar_path):
        raise ValueError(f"dataset sidecar {sidecar_path} is missing")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    batch = ChannelBatch(
        H=cplx[:, :n * nt].reshape(s, n, nt),
        h=cplx[:, n * nt:n * nt + k * n].reshape(s, k, n),
        g=cplx[:, n * nt + k * n:].reshape(s, k, nt),
        sigma2=block[:, 2 * cwidth:2 * cwidth + k],
        user_weight=block[:, 2 * cwidth + k:],
        p_max=float(sidecar["p_max"]),
    )
    return batch, sidecar

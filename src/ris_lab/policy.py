"""Unsupervised neural solver for the joint power and phase problem.

A fully connected network maps the vectorized channel realization to a
power split across users and a phase shift per surface element. Hidden
layers use batch normalization and ReLU; both output heads end in a
sigmoid. Feasibility is built into the output map: powers pass through a
softmax scaled by the budget, phases are scaled to one period, so any
parameter vector produces a feasible configuration. Training maximizes
the average weighted sum rate directly, backpropagating through the MMSE
direction solve; no labeled solutions are involved.
"""

from __future__ import annotations

import json
import logging
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import transmit as tm

log = logging.getLogger(__name__)

_BN_EPS = 1e-5
_MAGIC = b"RISM"
_FORMAT_VERSION = 1
_TWO_PI = 2.0 * np.pi


def input_width(dims) -> int:
    """Length of the real-valued network input for dims (K, N, NT)."""
    k, n, nt = (int(d) for d in dims)
    return 2 * (n * nt + k * (n + nt))


# --- parameters ---------------------------------------------------------------------

@dataclass
class MLPParams:
    """All trainable tensors plus batchnorm running statistics.

    Hidden layer g maps width a_g to a_{g+1} through weight (a_{g+1}, a_g)
    and bias, followed by batch normalization (scale, shift, running mean
    and variance) and ReLU. Two heads map the last hidden width to K power
    logits and N phase fractions.
    """

    dims: tuple
    hidden: tuple
    weights: list
    biases: list
    bn_scale: list
    bn_shift: list
    bn_mean: list
    bn_var: list
    head_p_w: ad.Tensor = None
    head_p_b: ad.Tensor = None
    head_phi_w: ad.Tensor = None
    head_phi_b: ad.Tensor = None

    def __post_init__(self):
        k, n, nt = (int(d) for d in self.dims)
        widths = [input_width(self.dims)] + [int(w) for w in self.hidden]
        if len(self.weights) != len(self.hidden):
            raise ValueError("one weight matrix per hidden layer required")
        for g, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.data.shape != (widths[g + 1], widths[g]):
                raise ValueError(
                    f"hidden layer {g} weight must be {(widths[g + 1], widths[g])}, "
                    f"got {w.data.shape}")
            if b.data.shape != (widths[g + 1],):
                raise ValueError(f"hidden layer {g} bias has wrong shape")
        last = widths[-1]
        if self.head_p_w.data.shape != (k, last) or self.head_p_b.data.shape != (k,):
            raise ValueError("power head shape mismatch")
        if self.head_phi_w.data.shape != (n, last) or self.head_phi_b.data.shape != (n,):
            raise ValueError("phase head shape mismatch")

    @property
    def a1(self) -> int:
        return input_width(self.dims)


def param_list(params: MLPParams) -> list:
    """Trainable tensors in a fixed order (running stats excluded)."""
    out = []
    for g in range(len(params.hidden)):
        out += [params.weights[g], params.biases[g],
                params.bn_scale[g], params.bn_shift[g]]
    out += [params.head_p_w, params.head_p_b,
            params.head_phi_w, params.head_phi_b]
    return out


def init_params(dims, hidden, rng) -> MLPParams:
    """Scaled Gaussian fan-in init for ReLU layers, uniform fan-average
    for the sigmoid heads; batchnorm starts as the identity."""
    k, n, nt = (int(d) for d in dims)
    hidden = tuple(int(w) for w in hidden)
    if not hidden or any(w < 1 for w in hidden):
        raise ValueError("hidden widths must be positive")
    widths = [input_width(dims)] + list(hidden)
    weights, biases, scales, shifts, means, variances = [], [], [], [], [], []
    for g in range(len(hidden)):
        fan_in, fan_out = widths[g], widths[g + 1]
        weights.append(ad.Tensor(rng.standard_normal((fan_out, fan_in))
                                 * np.sqrt(2.0 / fan_in)))
        biases.append(ad.Tensor(np.zeros(fan_out)))
        scales.append(ad.Tensor(np.ones(fan_out)))
        shifts.append(ad.Tensor(np.zeros(fan_out)))
        means.append(np.zeros(fan_out))
        variances.append(np.ones(fan_out))

    def head(rows):
        limit = np.sqrt(6.0 / (widths[-1] + rows))
        return (ad.Tensor(rng.uniform(-limit, limit, (rows, widths[-1]))),
                ad.Tensor(np.zeros(rows)))

    head_p_w, head_p_b = head(k)
    head_phi_w, head_phi_b = head(n)
    return MLPParams(dims=(k, n, nt), hidden=hidden, weights=weights,
                     biases=biases, bn_scale=scales, bn_shift=shifts,
                     bn_mean=means, bn_var=variances,
                     head_p_w=head_p_w, head_p_b=head_p_b,
                     head_phi_w=head_phi_w, head_phi_b=head_phi_b)


# --- input vectorization ------------------------------------------------------------

def vectorize_input(channels: tm.ChannelSet) -> np.ndarray:
    """Real input vector: H row-major, then h_1..h_K, then g_1..g_K, each
    complex entry contributing its real and imaginary part in place."""
    flat = np.concatenate([channels.H.reshape(-1), channels.h.reshape(-1),
                           channels.g.reshape(-1)])
    return np.ascontiguousarray(flat).view(np.float64)


def vectorize_batch(batch: tm.ChannelBatch) -> np.ndarray:
    s = len(batch)
    flat = np.concatenate([batch.H.reshape(s, -1), batch.h.reshape(s, -1),
                           batch.g.reshape(s, -1)], axis=1)
    return np.ascontiguousarray(flat).view(np.float64)


# --- forward passes -----------------------------------------------------------------

def _forward(params: MLPParams, x):
    """Taped training forward pass on a (batch, a1) input, normalizing with
    batch statistics. Returns (raw_p, raw_phi, batch_stats), the raw head
    outputs in (0, 1) and each hidden layer's (mean, variance)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != params.a1:
        raise ValueError(f"input must have {params.a1} features, got {arr.shape}")
    d = ad.Tensor(arr)
    stats = []
    for g in range(len(params.hidden)):
        z = ad.add(ad.matmul(d, ad.transpose_last2(params.weights[g])),
                   params.biases[g])
        y, mu, var = ad.batchnorm_train(z, params.bn_scale[g],
                                        params.bn_shift[g], eps=_BN_EPS)
        stats.append((mu, var))
        d = ad.relu(y)
    raw_p = ad.sigmoid(ad.add(ad.matmul(d, ad.transpose_last2(params.head_p_w)),
                              params.head_p_b))
    raw_phi = ad.sigmoid(ad.add(ad.matmul(d, ad.transpose_last2(params.head_phi_w)),
                                params.head_phi_b))
    return raw_p, raw_phi, stats


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _infer_numpy(params: MLPParams, x):
    """Inference forward pass with the running batchnorm statistics; no
    tape. Takes one input vector or a (batch, a1) stack."""
    d = np.asarray(x, dtype=np.float64)
    single = d.ndim == 1
    if single:
        d = d[None, :]
    for g in range(len(params.hidden)):
        z = d @ params.weights[g].data.T + params.biases[g].data
        z = ((z - params.bn_mean[g]) / np.sqrt(params.bn_var[g] + _BN_EPS)
             * params.bn_scale[g].data + params.bn_shift[g].data)
        d = np.maximum(z, 0.0)
    raw_p = _sigmoid_np(d @ params.head_p_w.data.T + params.head_p_b.data)
    raw_phi = _sigmoid_np(d @ params.head_phi_w.data.T + params.head_phi_b.data)
    if single:
        return raw_p[0], raw_phi[0]
    return raw_p, raw_phi


# --- feasibility mapping ------------------------------------------------------------

def normalize_outputs(raw_p, raw_phi, p_max):
    """Map raw head outputs to a feasible power split and phase vector.

    Powers: softmax scaled by the budget, so they are positive and spend
    exactly p_max. Phases: one full period times the raw fraction, wrapped
    into [0, 2*pi) to absorb sigmoid saturation at 1.
    """
    rp = np.asarray(raw_p, dtype=np.float64)
    e = np.exp(rp - rp.max())
    p = float(p_max) * e / e.sum()
    phases = tm.PhaseVector.wrapped(_TWO_PI * np.asarray(raw_phi, dtype=np.float64))
    return tm.PowerVector(p, p_max=float(p_max)), phases


def normalize_outputs_graph(raw_p, raw_phi, p_max):
    """Differentiable feasibility mapping on (batch, K) and (batch, N)."""
    p = ad.mul(ad.softmax(raw_p, axis=-1), float(p_max))
    phi = ad.mul(raw_phi, _TWO_PI)
    return p, phi


# --- loss ---------------------------------------------------------------------------

def _loss_with_stats(params: MLPParams, batch: tm.ChannelBatch):
    x = vectorize_batch(batch)
    raw_p, raw_phi, stats = _forward(params, x)
    p, phi = normalize_outputs_graph(raw_p, raw_phi, batch.p_max)
    objective = tm.weighted_sum_rate_graph(batch, p, phi)
    return ad.neg(ad.tmean(objective)), stats


def loss(params: MLPParams, batch: tm.ChannelBatch) -> ad.Tensor:
    """Negative mean weighted sum rate over the batch, as a scalar Tensor."""
    if len(batch) < 1:
        raise ValueError("loss needs a nonempty batch")
    value, _ = _loss_with_stats(params, batch)
    return value


# --- optimizer ----------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam accumulators; moments are kept per trainable tensor."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_optimizer(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> OptimizerState:
    tensors = param_list(params) if isinstance(params, MLPParams) else list(params)
    return OptimizerState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
                          m=[np.zeros_like(t.data) for t in tensors],
                          v=[np.zeros_like(t.data) for t in tensors])


def adam_step(params, grads, state: OptimizerState):
    """One Adam update applied in place; returns (params, state).

    params may be an MLPParams or a plain list of Tensors; grads is a
    matching list of arrays.
    """
    tensors = param_list(params) if isinstance(params, MLPParams) else list(params)
    if len(grads) != len(tensors) or len(state.m) != len(tensors):
        raise ValueError("gradient list does not match the parameter list")
    state.step += 1
    t = state.step
    for i, (tensor, grad) in enumerate(zip(tensors, grads)):
        g = np.asarray(grad, dtype=np.float64)
        if g.shape != tensor.data.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, "
                             f"expected {tensor.data.shape}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1 ** t)
        v_hat = state.v[i] / (1.0 - state.beta2 ** t)
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


# --- training loop ------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the unsupervised training loop.

    batches_per_epoch None means one pass over the shuffled dataset,
    floor(S / batch_size) minibatches.
    """

    epochs: int = 50
    batch_size: int = 256
    batches_per_epoch: int | None = None
    hidden: tuple = (512, 256, 128)
    learning_rate: float = 1e-3
    bn_momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.batches_per_epoch is not None and self.batches_per_epoch < 1:
            raise ValueError("batches_per_epoch must be at least 1")
        if not self.hidden or any(int(w) < 1 for w in self.hidden):
            raise ValueError("hidden widths must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ValueError("bn_momentum must lie in [0, 1)")


def _minibatch_stream(rng, total, size, count):
    """Yield `count` index blocks of `size`, reshuffling between passes."""
    perm = rng.permutation(total)
    pos = 0
    for _ in range(count):
        if pos + size > total:
            perm = rng.permutation(total)
            pos = 0
        yield perm[pos:pos + size]
        pos += size


def train(config: TrainConfig, dataset: tm.ChannelBatch):
    """Run the unsupervised loop; returns (params, per-epoch mean losses).

    Deterministic for a fixed config: one generator seeds both the
    initialization and the minibatch shuffles.
    """
    total = len(dataset)
    if total < config.batch_size:
        raise ValueError(
            f"dataset has {total} samples, need at least {config.batch_size}")
    rng = np.random.default_rng(config.seed)
    dims = (dataset.K, dataset.N, dataset.NT)
    params = init_params(dims, config.hidden, rng)
    state = init_optimizer(params, lr=config.learning_rate)
    tensors = param_list(params)
    batches = (config.batches_per_epoch if config.batches_per_epoch is not None
               else max(1, total // config.batch_size))
    history = []
    for epoch in range(config.epochs):
        epoch_losses = []
        for idx in _minibatch_stream(rng, total, config.batch_size, batches):
            sub = dataset.subset(idx)
            value, stats = _loss_with_stats(params, sub)
            for tensor in tensors:
                tensor.grad = None
            value.backward()
            grads = [np.zeros_like(t.data) if t.grad is None else t.grad
                     for t in tensors]
            adam_step(params, grads, state)
            for tensor in tensors:
                tensor.grad = None
            rho = config.bn_momentum
            for g, (mu, var) in enumerate(stats):
                params.bn_mean[g] = rho * params.bn_mean[g] + (1.0 - rho) * mu
                params.bn_var[g] = rho * params.bn_var[g] + (1.0 - rho) * var
            epoch_losses.append(float(value.data))
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        log.info("epoch %d/%d: loss %.6f", epoch + 1, config.epochs, mean_loss)
    return params, history


# --- inference ----------------------------------------------------------------------

@dataclass(frozen=True)
class InferResult:
    power: tm.PowerVector
    phases: tm.PhaseVector
    beamformers: tm.BeamformerSet
    rates: np.ndarray


def infer(params: MLPParams, channels: tm.ChannelSet) -> InferResult:
    """One inference pass: forward, feasibility mapping, MMSE recovery.

    The rates and the unit directions conj(t_i) / |t_i| come from one
    evaluation of the transmit objective's forward pass.
    """
    raw_p, raw_phi = _infer_numpy(params, vectorize_input(channels))
    power, phases = normalize_outputs(raw_p, raw_phi, channels.p_max)
    fw = tm._wsr_forward(channels, power.p, phases.phi)
    directions = np.conj(fw.T) / np.sqrt(fw.q)[:, None]
    beamformers = tm.recover_beamformers(power, directions)
    return InferResult(power=power, phases=phases, beamformers=beamformers,
                       rates=fw.rates)


# --- checkpoints --------------------------------------------------------------------

def save_params(path, params: MLPParams, meta=None) -> None:
    """Write a checkpoint: magic "RISM", version, dims, widths as unsigned
    32-bit little-endian, then all float64 blocks in param_list order with
    the running statistics after each layer's shift."""
    k, n, nt = params.dims
    header = _MAGIC + struct.pack("<IIIII", _FORMAT_VERSION, k, n, nt,
                                  len(params.hidden))
    header += struct.pack(f"<{len(params.hidden)}I", *params.hidden)
    blocks = []
    for g in range(len(params.hidden)):
        blocks += [params.weights[g].data, params.biases[g].data,
                   params.bn_scale[g].data, params.bn_shift[g].data,
                   params.bn_mean[g], params.bn_var[g]]
    blocks += [params.head_p_w.data, params.head_p_b.data,
               params.head_phi_w.data, params.head_phi_b.data]
    with open(path, "wb") as fh:
        fh.write(header)
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    sidecar = {"format": "RISM", "version": _FORMAT_VERSION,
               "users": k, "elements": n, "antennas": nt,
               "hidden": list(params.hidden)}
    if meta:
        sidecar.update(meta)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path):
    """Read a checkpoint written by save_params; returns (params, sidecar).

    The binary is self-contained; a missing sidecar yields an empty dict.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != _MAGIC:
        raise ValueError(f"{path} is not a model checkpoint (bad magic)")
    version, k, n, nt, depth = struct.unpack("<IIIII", raw[4:24])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = 24 + 4 * depth
    hidden = struct.unpack(f"<{depth}I", raw[24:offset])
    widths = [input_width((k, n, nt))] + list(hidden)

    pos = offset

    def take(shape):
        nonlocal pos
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
        return arr.reshape(shape).copy()

    weights, biases, scales, shifts, means, variances = [], [], [], [], [], []
    for g in range(depth):
        weights.append(ad.Tensor(take((widths[g + 1], widths[g]))))
        biases.append(ad.Tensor(take((widths[g + 1],))))
        scales.append(ad.Tensor(take((widths[g + 1],))))
        shifts.append(ad.Tensor(take((widths[g + 1],))))
        means.append(take((widths[g + 1],)))
        variances.append(take((widths[g + 1],)))
    head_p_w = ad.Tensor(take((k, widths[-1])))
    head_p_b = ad.Tensor(take((k,)))
    head_phi_w = ad.Tensor(take((n, widths[-1])))
    head_phi_b = ad.Tensor(take((n,)))
    if pos != len(raw):
        raise ValueError(f"{path} has {len(raw) - pos} trailing bytes")
    params = MLPParams(dims=(k, n, nt), hidden=tuple(hidden), weights=weights,
                       biases=biases, bn_scale=scales, bn_shift=shifts,
                       bn_mean=means, bn_var=variances,
                       head_p_w=head_p_w, head_p_b=head_p_b,
                       head_phi_w=head_phi_w, head_phi_b=head_phi_b)
    sidecar_path = str(path) + ".json"
    sidecar = {}
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    return params, sidecar

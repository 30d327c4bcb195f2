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
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import fileio
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

    Inference caches constants derived from these arrays (see
    _inference_layers), made again once an array has been replaced or a
    tensor's version has moved. adam_step updates tensors in place and
    bumps their versions; any other in-place edit must do the same.
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
    _folded: tuple = field(default=None, init=False, repr=False, compare=False)

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
    complex entry contributing its real and imaginary part in place. A
    ChannelBatch gives one such row per sample."""
    shape = channels.H.shape[:-2] + (-1,)
    flat = np.concatenate([channels.H.reshape(shape), channels.h.reshape(shape),
                           channels.g.reshape(shape)], axis=-1)
    return np.ascontiguousarray(flat).view(np.float64)


# --- forward passes -----------------------------------------------------------------

def _forward(params: MLPParams, x):
    """Taped forward pass on a (batch, a1) input, normalizing with batch
    statistics as training does; loss() builds on it. Returns (raw_p,
    raw_phi, batch_stats), the raw head outputs in (0, 1) and each hidden
    layer's (mean, variance)."""
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


def _inference_layers(params: MLPParams):
    """The inference network with batchnorm folded into each layer.

    Hidden layer g is relu((x @ weights_g^T) s_g + c_g), the running
    statistics folded into s_g = scale / sqrt(var + eps) and
    c_g = (bias - mean) s_g + shift; the two heads are stacked into one
    (K + N, a) map. The folded vectors are cached on params with the
    arrays and tensor versions they were made from, and made again once
    any of those has changed. The weights themselves are not copied.
    """
    tensors = param_list(params)
    versions = tuple(t.version for t in tensors)
    sources = (tuple(t.data for t in tensors)
               + tuple(params.bn_mean) + tuple(params.bn_var))
    cached = params._folded
    if (cached is not None and cached[0] == versions
            and len(cached[1]) == len(sources)
            and all(a is b for a, b in zip(cached[1], sources))):
        return cached[2]
    hidden = []
    for g in range(len(params.hidden)):
        s = params.bn_scale[g].data / np.sqrt(params.bn_var[g] + _BN_EPS)
        hidden.append((params.weights[g].data, s,
                       (params.biases[g].data - params.bn_mean[g]) * s
                       + params.bn_shift[g].data))
    head = (np.concatenate([params.head_p_w.data, params.head_phi_w.data]),
            np.concatenate([params.head_p_b.data, params.head_phi_b.data]))
    params._folded = (versions, sources, (hidden, head))
    return hidden, head


def _infer_numpy(params: MLPParams, x):
    """Inference forward pass with the running batchnorm statistics; no
    tape. Takes one input vector or a (batch, a1) stack."""
    d = np.asarray(x, dtype=np.float64)
    hidden, (head_w, head_b) = _inference_layers(params)
    for w, s, c in hidden:
        d = np.maximum((d @ w.T) * s + c, 0.0)
    # the logistic function, written so that it never overflows
    raw = 0.5 + 0.5 * np.tanh(0.5 * (d @ head_w.T + head_b))
    k = params.dims[0]
    return raw[..., :k], raw[..., k:]


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

def loss(params: MLPParams, batch: tm.ChannelBatch) -> ad.Tensor:
    """Negative mean weighted sum rate over the batch, as a scalar Tensor.

    The taped loss is the gradient oracle for _train_step; training does
    not build it.
    """
    raw_p, raw_phi, _ = _forward(params, vectorize_input(batch))
    p, phi = normalize_outputs_graph(raw_p, raw_phi, batch.p_max)
    objective = tm.weighted_sum_rate_graph(batch, p, phi)
    return ad.neg(ad.tmean(objective))


def _train_step(params: MLPParams, batch: tm.ChannelBatch):
    """Loss and gradients of one training minibatch, without a tape.

    The forward pass repeats _forward's arithmetic and keeps each layer's
    activations; the backward writes every gradient in closed form and
    skips the input's. Returns (loss, grads in param_list order, each
    hidden layer's batch (mean, variance)); the loss equals loss()'s value.
    A loss that is not finite comes back with grads None: the backward
    would only spread the overflow.
    """
    x = vectorize_input(batch)
    inv_n = 1.0 / x.shape[0]
    d = x
    layers, stats = [], []
    for g in range(len(params.hidden)):
        z = d @ params.weights[g].data.T
        z += params.biases[g].data
        mu = z.sum(axis=0) * inv_n
        z -= mu
        var = (z * z).sum(axis=0) * inv_n
        inv = 1.0 / np.sqrt(var + _BN_EPS)
        z *= inv                                   # xhat
        y = z * params.bn_scale[g].data
        y += params.bn_shift[g].data
        stats.append((mu, var))
        layers.append((d, z, inv, np.maximum(y, 0.0, out=y)))
        d = y
    raw_p = ad.logistic(d @ params.head_p_w.data.T + params.head_p_b.data)
    raw_phi = ad.logistic(d @ params.head_phi_w.data.T + params.head_phi_b.data)
    soft = ad.softmax_values(raw_p, axis=-1)
    p = soft * batch.p_max
    # a dataset that overflows the objective is reported by the caller
    # through the non-finite loss, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        fw = tm._wsr_forward(batch, p, raw_phi * _TWO_PI)
        value = float(-(np.sum(batch.user_weight * fw.rates, axis=-1).sum()
                        * inv_n))
    if not math.isfinite(value):
        return value, None, stats

    # loss = -mean(objective): each sample's objective gradient scaled by
    # -1/n, then taken back through p = p_max softmax(raw_p),
    # phi = 2 pi raw_phi and the two sigmoids
    gp, gphi = tm._wsr_backward(batch, fw, p)
    g_p = gp * (-inv_n * batch.p_max)
    g_p -= np.sum(g_p * soft, axis=-1, keepdims=True)
    g_p *= soft
    g_p = g_p * raw_p * (1.0 - raw_p)
    g_phi = gphi * (-inv_n * _TWO_PI) * raw_phi * (1.0 - raw_phi)
    head = [g_p.T @ d, g_p.sum(axis=0), g_phi.T @ d, g_phi.sum(axis=0)]
    gd = g_p @ params.head_p_w.data
    gd += g_phi @ params.head_phi_w.data
    grads = []
    for g in reversed(range(len(params.hidden))):
        d, xhat, inv, out = layers[g]
        gd *= out > 0.0                            # relu
        g_shift = gd.sum(axis=0)
        g_scale = (gd * xhat).sum(axis=0)
        gd *= params.bn_scale[g].data              # the gradient of xhat
        # batchnorm with batch statistics:
        # gz = inv (gx - mean(gx) - xhat mean(gx xhat))
        mean_gx = gd.sum(axis=0) * inv_n
        xhat *= (gd * xhat).sum(axis=0) * inv_n
        gd -= mean_gx
        gd -= xhat
        gd *= inv
        grads[:0] = [gd.T @ d, gd.sum(axis=0), g_scale, g_shift]
        if g > 0:
            gd = gd @ params.weights[g].data
    return value, grads + head, stats


# --- optimizer ----------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam accumulators; moments are kept per trainable tensor, with one
    scratch buffer for the update's intermediates."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = max((m.size for m in self.m), default=0)
        self.scratch = np.empty(2 * size)


def init_optimizer(params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> OptimizerState:
    tensors = param_list(params) if isinstance(params, MLPParams) else list(params)
    return OptimizerState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
                          m=[np.zeros_like(t.data) for t in tensors],
                          v=[np.zeros_like(t.data) for t in tensors])


def adam_step(params, grads, state: OptimizerState):
    """One Adam update; returns (params, state).

    params may be an MLPParams or a plain list of Tensors; grads is a
    matching list of arrays. The moments and each tensor's data are
    updated in place, with the arithmetic of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g g and data -= lr m_hat / (sqrt(v_hat) + eps)
    in that order, and each tensor's version is bumped.
    """
    tensors = param_list(params) if isinstance(params, MLPParams) else list(params)
    if len(grads) != len(tensors) or len(state.m) != len(tensors):
        raise ValueError("gradient list does not match the parameter list")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for i, (tensor, grad) in enumerate(zip(tensors, grads)):
        g = np.asarray(grad, dtype=np.float64)
        if g.shape != tensor.data.shape:
            raise ValueError(f"gradient {i} has shape {g.shape}, "
                             f"expected {tensor.data.shape}")
        m, v = state.m[i], state.v[i]
        a = state.scratch[:g.size].reshape(g.shape)
        b = state.scratch[g.size:2 * g.size].reshape(g.shape)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.sqrt(np.divide(v, c2, out=a), out=a)
        a += state.eps
        np.multiply(np.divide(m, c1, out=b), state.lr, out=b)
        tensor.data -= np.divide(b, a, out=b)
        tensor.version += 1
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
    batches = (config.batches_per_epoch if config.batches_per_epoch is not None
               else max(1, total // config.batch_size))
    history = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        epoch_losses = []
        for b, idx in enumerate(_minibatch_stream(rng, total, config.batch_size,
                                                  batches)):
            value, grads, stats = _train_step(params, dataset.subset(idx))
            if grads is None:
                raise ValueError(f"training loss is {value} at epoch "
                                 f"{epoch + 1}, batch {b + 1}")
            adam_step(params, grads, state)
            rho = config.bn_momentum
            for g, (mu, var) in enumerate(stats):
                params.bn_mean[g] = rho * params.bn_mean[g] + (1.0 - rho) * mu
                params.bn_var[g] = rho * params.bn_var[g] + (1.0 - rho) * var
            epoch_losses.append(value)
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        if log.isEnabledFor(logging.INFO):
            norm = math.sqrt(sum(float(np.vdot(gr, gr)) for gr in grads))
            log.info("epoch %d/%d: loss %.6f, %.3f s, gradient norm %.4g",
                     epoch + 1, config.epochs, mean_loss,
                     time.perf_counter() - started, norm)
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
    evaluation of the transmit objective's forward pass; the beamformers
    scale the directions by the square roots of the powers, as
    tm.recover_beamformers does.
    """
    raw_p, raw_phi = _infer_numpy(params, vectorize_input(channels))
    power, phases = normalize_outputs(raw_p, raw_phi, channels.p_max)
    fw = tm._wsr_forward(channels, power.p, phases.phi)
    directions = np.conj(fw.T) / np.sqrt(fw.q)[:, None]
    beamformers = tm.BeamformerSet(w=np.sqrt(power.p)[:, None] * directions,
                                   p_max=power.p_max)
    return InferResult(power=power, phases=phases, beamformers=beamformers,
                       rates=fw.rates)


# --- checkpoints --------------------------------------------------------------------

def save_params(path, params: MLPParams, meta=None) -> None:
    """Write a checkpoint: magic "RISM", version, dims, widths as unsigned
    32-bit little-endian, then all float64 blocks in param_list order with
    the running statistics after each layer's shift. The JSON sidecar and
    the binary are replaced atomically, the sidecar first."""
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
    sidecar = {"format": "RISM", "version": _FORMAT_VERSION,
               "users": k, "elements": n, "antennas": nt,
               "hidden": list(params.hidden)}
    if meta:
        sidecar.update(meta)
    chunks = [header] + [np.ascontiguousarray(b, dtype="<f8") for b in blocks]
    fileio.write_files((str(path) + ".json", fileio.json_text(sidecar)),
                       (path, chunks))


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

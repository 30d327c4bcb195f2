"""Tests for the neural solver: vectorization, forward passes, feasibility
mapping, loss against the transmit-model objective, Adam, training loop,
inference, and checkpoint files."""

import numpy as np
import pytest

from ris_lab import autodiff as ad
from ris_lab import policy as pl
from ris_lab import transmit as tm


def make_channels(rng, k=2, n=3, nt=4, p_max=1.0, weights=None):
    return tm.sample_channels(1.0, np.ones(k), np.ones(k), (n, nt), rng,
                              eta=0.0, user_weight=weights, p_max=p_max)


def make_batch(rng, count, **kw):
    return tm.ChannelBatch.from_sets([make_channels(rng, **kw) for _ in range(count)])


def zeroed_params(dims, hidden, rng):
    params = pl.init_params(dims, hidden, rng)
    for t in pl.param_list(params):
        t.data[:] = 0.0
    for g in range(len(hidden)):
        params.bn_scale[g].data[:] = 1.0  # keep batchnorm as the identity
    return params


# --- vectorization ------------------------------------------------------------------

def test_input_width_at_reference_dims():
    assert pl.input_width((4, 8, 8)) == 256


def test_input_width_minimal():
    assert pl.input_width((1, 1, 1)) == 6


def test_vectorize_layout():
    ch = tm.ChannelSet(H=[[1 + 2j, 3 + 4j]], h=[[5 + 6j]], g=[[7 + 8j, 9 + 10j]],
                       sigma2=[1.0], user_weight=[1.0])
    vec = pl.vectorize_input(ch)
    assert np.array_equal(vec, np.arange(1.0, 11.0))


def test_vectorize_round_trip():
    rng = np.random.default_rng(3)
    ch = make_channels(rng, k=2, n=3, nt=4, p_max=2.0, weights=[1.0, 0.5])
    vec = pl.vectorize_input(ch)
    assert vec.shape == (pl.input_width((2, 3, 4)),)
    cplx = vec.view(np.complex128)
    assert np.array_equal(cplx[:12].reshape(3, 4), ch.H)
    assert np.array_equal(cplx[12:18].reshape(2, 3), ch.h)
    assert np.array_equal(cplx[18:].reshape(2, 4), ch.g)


def test_vectorize_batch_rows_match_single():
    rng = np.random.default_rng(5)
    sets = [make_channels(rng) for _ in range(4)]
    batch = tm.ChannelBatch.from_sets(sets)
    rows = pl.vectorize_batch(batch)
    for i, ch in enumerate(sets):
        assert np.array_equal(rows[i], pl.vectorize_input(ch))


# --- forward passes -----------------------------------------------------------------

def test_zeroed_network_outputs_half():
    rng = np.random.default_rng(7)
    params = zeroed_params((2, 3, 4), (8, 6), rng)
    x = rng.standard_normal((5, params.a1))
    raw_p, raw_phi, _ = pl._forward(params, x)
    for out in (raw_p.data, raw_phi.data, *pl._infer_numpy(params, x)):
        assert np.all(out == 0.5)


def test_forward_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(11)
    params = pl.init_params((2, 3, 4), (32, 16), rng)
    x = 3.0 * rng.standard_normal((1000, params.a1))
    raw_p, raw_phi, _ = pl._forward(params, x)
    for out in (raw_p.data, raw_phi.data, *pl._infer_numpy(params, x)):
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_forward_modes_agree_when_stats_frozen():
    # the taped training pass and the tape-free inference pass agree once
    # the running statistics equal the batch statistics
    rng = np.random.default_rng(13)
    params = pl.init_params((2, 3, 4), (16, 8), rng)
    x = rng.standard_normal((32, params.a1))
    raw_p, raw_phi, stats = pl._forward(params, x)
    for g, (mu, var) in enumerate(stats):
        params.bn_mean[g] = mu
        params.bn_var[g] = var
    inf_p, inf_phi = pl._infer_numpy(params, x)
    assert np.max(np.abs(raw_p.data - inf_p)) < 1e-10
    assert np.max(np.abs(raw_phi.data - inf_phi)) < 1e-10


def _taped_infer(params, x):
    # inference pass rebuilt from tape ops, normalizing with the running stats
    d = ad.Tensor(x)
    for g in range(len(params.hidden)):
        z = ad.add(ad.matmul(d, ad.transpose_last2(params.weights[g])),
                   params.biases[g])
        inv_std = ad.reciprocal(ad.sqrt(ad.Tensor(params.bn_var[g] + pl._BN_EPS)))
        z = ad.add(ad.mul(ad.mul(ad.sub(z, ad.Tensor(params.bn_mean[g])), inv_std),
                          params.bn_scale[g]), params.bn_shift[g])
        d = ad.relu(z)
    raw_p = ad.sigmoid(ad.add(ad.matmul(d, ad.transpose_last2(params.head_p_w)),
                              params.head_p_b))
    raw_phi = ad.sigmoid(ad.add(ad.matmul(d, ad.transpose_last2(params.head_phi_w)),
                                params.head_phi_b))
    return raw_p, raw_phi


def test_tape_free_inference_matches_taped_forward():
    rng = np.random.default_rng(23)
    params = pl.init_params((3, 4, 5), (16, 8), rng)
    params.bn_mean = [rng.standard_normal(w) * 0.1 for w in (16, 8)]
    params.bn_var = [rng.uniform(0.5, 2.0, w) for w in (16, 8)]
    x = rng.standard_normal((10, params.a1))
    fast_p, fast_phi = pl._infer_numpy(params, x)
    taped_p, taped_phi = _taped_infer(params, x)
    assert np.max(np.abs(fast_p - taped_p.data)) < 1e-12
    assert np.max(np.abs(fast_phi - taped_phi.data)) < 1e-12


def test_forward_single_vector_shapes():
    rng = np.random.default_rng(17)
    params = pl.init_params((2, 3, 4), (8,), rng)
    raw_p, raw_phi = pl._infer_numpy(params, rng.standard_normal(params.a1))
    assert raw_p.shape == (2,)
    assert raw_phi.shape == (3,)


def test_forward_rejects_bad_input():
    rng = np.random.default_rng(19)
    params = pl.init_params((1, 2, 2), (4,), rng)
    with pytest.raises(ValueError):
        pl._forward(params, np.zeros((3, params.a1 + 1)))
    with pytest.raises(ValueError):
        pl._forward(params, np.zeros(params.a1))  # training takes a batch
    with pytest.raises(ValueError):
        pl._infer_numpy(params, np.zeros(params.a1 + 1))


# --- feasibility mapping ------------------------------------------------------------

def test_normalize_equal_logits_split_evenly():
    power, _ = pl.normalize_outputs(np.full(4, 0.37), np.full(3, 0.5), 1.0)
    assert np.array_equal(power.p, np.full(4, 0.25))


def test_normalize_budget_exact_on_random_inputs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        power, phases = pl.normalize_outputs(rng.uniform(0, 1, 5),
                                             rng.uniform(0, 1, 6), 3.0)
        assert abs(power.p.sum() - 3.0) < 1e-12
        assert np.all(phases.phi >= 0.0) and np.all(phases.phi < 2 * np.pi)


def test_normalize_phase_scaling():
    _, phases = pl.normalize_outputs(np.array([0.5]), np.array([0.5, 1.0]), 1.0)
    assert phases.phi[0] == pytest.approx(np.pi, rel=1e-15)
    assert phases.phi[1] == 0.0  # saturation wraps to the start of the period


def test_normalize_graph_matches_numpy():
    rng = np.random.default_rng(31)
    raw_p = rng.uniform(0, 1, (4, 3))
    raw_phi = rng.uniform(0, 1, (4, 5))
    p, phi = pl.normalize_outputs_graph(ad.Tensor(raw_p), ad.Tensor(raw_phi), 2.0)
    for i in range(4):
        power, phases = pl.normalize_outputs(raw_p[i], raw_phi[i], 2.0)
        assert np.max(np.abs(p.data[i] - power.p)) < 1e-12
        # graph phases are unwrapped; compare modulo one period
        assert np.max(np.abs(np.mod(phi.data[i], 2 * np.pi) - phases.phi)) < 1e-12


# --- loss ---------------------------------------------------------------------------

def test_loss_single_user_single_sample():
    rng = np.random.default_rng(37)
    ch = make_channels(rng, k=1, n=2, nt=2, weights=[1.7])
    batch = tm.ChannelBatch.from_sets([ch])
    params = pl.init_params((1, 2, 2), (8,), rng)
    value = pl.loss(params, batch)
    raw_p, raw_phi, _ = pl._forward(params, pl.vectorize_batch(batch))
    power, phases = pl.normalize_outputs(raw_p.data[0], raw_phi.data[0], ch.p_max)
    want = -tm.weighted_sum_rate(ch, power, phases)
    assert value.data.item() == pytest.approx(want, abs=1e-10)


def test_loss_matches_mean_objective():
    rng = np.random.default_rng(41)
    sets = [make_channels(rng, k=3, n=3, nt=4, weights=rng.uniform(0.5, 1.5, 3))
            for _ in range(6)]
    batch = tm.ChannelBatch.from_sets(sets)
    params = pl.init_params((3, 3, 4), (16, 8), rng)
    value = pl.loss(params, batch)
    raw_p, raw_phi, _ = pl._forward(params, pl.vectorize_batch(batch))
    rates = []
    for i, ch in enumerate(sets):
        power, phases = pl.normalize_outputs(raw_p.data[i], raw_phi.data[i],
                                             ch.p_max)
        rates.append(tm.weighted_sum_rate(ch, power, phases))
    assert value.data.item() == pytest.approx(-np.mean(rates), abs=1e-10)


def test_loss_never_positive():
    rng = np.random.default_rng(43)
    for seed in range(3):
        params = pl.init_params((2, 2, 3), (8,), np.random.default_rng(seed))
        batch = make_batch(rng, 4, k=2, n=2, nt=3)
        assert pl.loss(params, batch).data.item() <= 0.0


def test_loss_gradient_matches_finite_differences():
    # end-to-end through softmax, phases, cascade and the MMSE solve
    rng = np.random.default_rng(47)
    batch = make_batch(rng, 3, k=1, n=2, nt=2)
    template = pl.init_params((1, 2, 2), (4,), rng)
    arrays = [t.data.copy() for t in pl.param_list(template)]

    def f(w1, b1, gam, bet, hpw, hpb, hfw, hfb):
        params = pl.MLPParams(dims=(1, 2, 2), hidden=(4,), weights=[w1],
                              biases=[b1], bn_scale=[gam], bn_shift=[bet],
                              bn_mean=[template.bn_mean[0]],
                              bn_var=[template.bn_var[0]],
                              head_p_w=hpw, head_p_b=hpb,
                              head_phi_w=hfw, head_phi_b=hfb)
        return pl.loss(params, batch)

    report = ad.grad_check(f, arrays, step=1e-5, tol=1e-4)
    assert report.passed, str(report)


# --- optimizer ----------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    theta = [ad.Tensor(np.array([1.0, -2.0]))]
    state = pl.init_optimizer(theta)
    pl.adam_step(theta, [np.zeros(2)], state)
    assert np.array_equal(theta[0].data, [1.0, -2.0])


def test_adam_first_step_has_learning_rate_magnitude():
    theta = [ad.Tensor(np.array([5.0]))]
    state = pl.init_optimizer(theta, lr=0.01)
    pl.adam_step(theta, [np.array([3.0])], state)
    assert theta[0].data[0] == pytest.approx(5.0 - 0.01 * 3.0 / (3.0 + 1e-8),
                                             abs=1e-12)


def test_adam_converges_on_quadratic():
    theta = [ad.Tensor(np.array([1.0]))]
    state = pl.init_optimizer(theta, lr=0.01)
    for step in range(2000):
        if abs(theta[0].data[0]) < 1e-3:
            break
        pl.adam_step(theta, [2.0 * theta[0].data], state)
    assert abs(theta[0].data[0]) < 1e-3


def test_adam_rejects_shape_mismatch():
    theta = [ad.Tensor(np.zeros(3))]
    state = pl.init_optimizer(theta)
    with pytest.raises(ValueError):
        pl.adam_step(theta, [np.zeros(4)], state)
    with pytest.raises(ValueError):
        pl.adam_step(theta, [np.zeros(3), np.zeros(1)], state)


# --- training -----------------------------------------------------------------------

def test_train_zero_epochs_returns_initialization():
    rng = np.random.default_rng(53)
    dataset = make_batch(rng, 8, k=2, n=2, nt=2)
    config = pl.TrainConfig(epochs=0, batch_size=4, hidden=(8,), seed=99)
    params, history = pl.train(config, dataset)
    assert history == []
    want = pl.init_params((2, 2, 2), (8,), np.random.default_rng(99))
    for got_t, want_t in zip(pl.param_list(params), pl.param_list(want)):
        assert np.array_equal(got_t.data, want_t.data)


def test_train_overfits_a_tiny_batch():
    rng = np.random.default_rng(59)
    dataset = make_batch(rng, 8, k=2, n=2, nt=2)
    config = pl.TrainConfig(epochs=200, batch_size=8, hidden=(16, 8),
                            learning_rate=1e-3, seed=1)
    params, history = pl.train(config, dataset)
    assert len(history) == 200
    assert history[-1] < history[0]


def test_train_is_deterministic():
    rng = np.random.default_rng(61)
    dataset = make_batch(rng, 16, k=2, n=2, nt=2)
    config = pl.TrainConfig(epochs=2, batch_size=8, hidden=(8,), seed=5)
    a, hist_a = pl.train(config, dataset)
    b, hist_b = pl.train(config, dataset)
    assert hist_a == hist_b
    for ta, tb in zip(pl.param_list(a), pl.param_list(b)):
        assert np.array_equal(ta.data, tb.data)
    for g in range(1):
        assert np.array_equal(a.bn_mean[g], b.bn_mean[g])


def test_train_rejects_small_dataset():
    rng = np.random.default_rng(67)
    dataset = make_batch(rng, 4, k=1, n=2, nt=2)
    with pytest.raises(ValueError):
        pl.train(pl.TrainConfig(batch_size=8, hidden=(4,)), dataset)


def test_train_config_validation():
    with pytest.raises(ValueError):
        pl.TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        pl.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        pl.TrainConfig(hidden=())
    with pytest.raises(ValueError):
        pl.TrainConfig(learning_rate=0.0)


# --- inference ----------------------------------------------------------------------

def test_infer_outputs_are_feasible_and_consistent():
    rng = np.random.default_rng(71)
    ch = make_channels(rng, k=3, n=4, nt=4, p_max=2.0)
    params = pl.init_params((3, 4, 4), (16, 8), rng)
    result = pl.infer(params, ch)
    assert abs(result.power.p.sum() - 2.0) < 1e-9
    assert np.all(result.phases.phi >= 0.0)
    assert np.all(result.phases.phi < 2 * np.pi)
    assert np.sum(np.abs(result.beamformers.w) ** 2) <= 2.0 + 1e-9
    want = tm.user_rates(ch, result.power, result.phases)
    assert np.max(np.abs(result.rates - want)) < 1e-12
    again = pl.infer(params, ch)
    assert np.array_equal(result.power.p, again.power.p)
    assert np.array_equal(result.phases.phi, again.phases.phi)


def test_infer_rate_matches_full_beamformer_path():
    rng = np.random.default_rng(73)
    ch = make_channels(rng, k=2, n=3, nt=3)
    params = pl.init_params((2, 3, 3), (8,), rng)
    result = pl.infer(params, ch)
    for k in range(2):
        assert result.rates[k] == pytest.approx(
            tm.rate(ch, k, result.beamformers, result.phases), abs=1e-12)


# --- checkpoints --------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(79)
    params = pl.init_params((2, 3, 4), (16, 8), rng)
    params.bn_mean = [rng.standard_normal(16), rng.standard_normal(8)]
    params.bn_var = [rng.uniform(0.5, 2.0, 16), rng.uniform(0.5, 2.0, 8)]
    path = tmp_path / "model.rism"
    pl.save_params(path, params, meta={"loss_history": [-1.0, -2.0]})
    loaded, sidecar = pl.load_params(path)
    assert loaded.dims == (2, 3, 4)
    assert loaded.hidden == (16, 8)
    for got_t, want_t in zip(pl.param_list(loaded), pl.param_list(params)):
        assert np.array_equal(got_t.data, want_t.data)
    for g in range(2):
        assert np.array_equal(loaded.bn_mean[g], params.bn_mean[g])
        assert np.array_equal(loaded.bn_var[g], params.bn_var[g])
    assert sidecar["loss_history"] == [-1.0, -2.0]

    rng2 = np.random.default_rng(83)
    ch = make_channels(rng2, k=2, n=3, nt=4)
    a, b = pl.infer(params, ch), pl.infer(loaded, ch)
    assert np.array_equal(a.power.p, b.power.p)
    assert np.array_equal(a.phases.phi, b.phases.phi)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.rism"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        pl.load_params(bad)

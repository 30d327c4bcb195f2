"""Tests for the downlink transmit model.

The independent oracles live at the top: a scalar-loop expansion of the
cascade row, and per-user rate recomputation through full beamformers used
to cross-check the power-plus-direction objective path.
"""

import struct
import warnings

import numpy as np
import pytest

from ris_lab import autodiff as ad
from ris_lab import transmit as tm


# --- oracles ------------------------------------------------------------------------

def cascade_oracle(channels, k, phi):
    """Scalar-loop expansion of f_k = conj(g_k) + conj(h_k) e^{j phi} H."""
    out = np.zeros(channels.NT, dtype=np.complex128)
    for t in range(channels.NT):
        acc = np.conj(channels.g[k][t])
        for n in range(channels.N):
            acc += np.conj(channels.h[k][n]) * np.exp(1j * phi[n]) * channels.H[n, t]
        out[t] = acc
    return out


def rates_via_full_beamformers(channels, p, phi):
    """Per-user rates through explicit beamformers w_k = sqrt(p_k) w_bar_k."""
    G = tm.build_G(channels, phi)
    w_bar = tm.mmse_directions(G, channels.sigma2)
    bf = tm.recover_beamformers(tm.PowerVector(p, p_max=float(np.sum(p))), w_bar)
    return np.array([tm.rate(channels, k, bf, phi) for k in range(channels.K)])


def random_channels(rng, k=3, n=4, nt=5, p_max=1.0, weights=None):
    return tm.sample_channels(1.0, np.ones(k), np.ones(k), (n, nt), rng,
                              eta=0.0, user_weight=weights, p_max=p_max)


def random_power(rng, k, p_max=1.0):
    return p_max * rng.dirichlet(np.ones(k))


# --- channel sampling ---------------------------------------------------------------

def test_sample_channels_deterministic_replay():
    a = random_channels(np.random.default_rng(7))
    b = random_channels(np.random.default_rng(7))
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.sigma2, b.sigma2)


def test_sample_channels_unit_power_monte_carlo():
    # eta = 0, rho0 = 1: every link entry has unit average power
    rng = np.random.default_rng(123)
    ch = tm.sample_channels(3.7, [0.4], [9.1], (1000, 1000), rng, rho0=1.0, eta=0.0)
    pooled = np.concatenate([np.abs(ch.H).ravel() ** 2,
                             np.abs(ch.h).ravel() ** 2,
                             np.abs(ch.g).ravel() ** 2])
    assert pooled.size >= 1_000_000
    assert 0.99 <= pooled.mean() <= 1.01


def test_doubling_pathloss_quarters_power():
    draw = lambda e: tm.sample_channels(e, [e], [e], (6, 5),
                                        np.random.default_rng(5), eta=2.0)
    near, far = draw(1.0), draw(2.0)
    assert np.array_equal(far.H, 0.5 * near.H)
    ratio = np.mean(np.abs(far.H) ** 2) / np.mean(np.abs(near.H) ** 2)
    assert ratio == pytest.approx(0.25, abs=0.0)


def test_sample_channels_rejects_bad_pathloss():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        tm.sample_channels(0.0, [1.0], [1.0], (2, 2), rng)
    with pytest.raises(ValueError):
        tm.sample_channels(1.0, [1.0, -2.0], [1.0, 1.0], (2, 2), rng)


# --- cascade assembly ---------------------------------------------------------------

def test_cascade_zero_reflector_reduces_to_direct():
    ch = random_channels(np.random.default_rng(1), k=2, n=3, nt=4)
    quiet = tm.ChannelSet(H=ch.H, h=np.zeros_like(ch.h), g=ch.g,
                          sigma2=ch.sigma2, user_weight=ch.user_weight)
    phi = np.random.default_rng(2).uniform(0, 2 * np.pi, 3)
    for k in range(2):
        assert np.allclose(tm.cascade_row(quiet, k, phi), np.conj(ch.g[k]),
                           rtol=0, atol=0)


def test_cascade_zero_phase_is_plain_sum():
    ch = random_channels(np.random.default_rng(3), k=2, n=3, nt=4)
    for k in range(2):
        want = np.conj(ch.g[k]) + np.conj(ch.h[k]) @ ch.H
        got = tm.cascade_row(ch, k, np.zeros(3))
        assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_cascade_matches_scalar_expansion():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, k=2, n=2, nt=3)
        phi = rng.uniform(0, 2 * np.pi, 2)
        for k in range(2):
            got = tm.cascade_row(ch, k, phi)
            want = cascade_oracle(ch, k, phi)
            assert np.max(np.abs(got - want)) < 1e-12


def test_build_g_stacks_cascade_rows():
    rng = np.random.default_rng(11)
    ch = random_channels(rng, k=3, n=4, nt=5)
    phi = tm.PhaseVector(rng.uniform(0, 2 * np.pi, 4))
    G = tm.build_G(ch, phi)
    assert G.shape == (3, 5)
    for k in range(3):
        assert np.allclose(G[k], tm.cascade_row(ch, k, phi), rtol=0, atol=1e-15)
    single = random_channels(rng, k=1, n=4, nt=5)
    assert tm.build_G(single, phi).shape == (1, 5)


# --- MMSE directions ----------------------------------------------------------------

def test_mmse_single_user_is_matched_filter():
    rng = np.random.default_rng(21)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    w_bar = tm.mmse_directions(f[None, :], [0.3])
    want = np.conj(f) / np.linalg.norm(f)
    assert np.max(np.abs(w_bar[0] - want)) < 1e-12


def test_mmse_orthogonal_rows_give_normalized_rows():
    G = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 2.0j]], dtype=np.complex128)
    w_bar = tm.mmse_directions(G, [0.5, 0.5])
    want = np.conj(G) / 2.0
    assert np.max(np.abs(w_bar - want)) < 1e-12


def test_mmse_zero_forcing_limit():
    rng = np.random.default_rng(31)
    G = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    w_bar = tm.mmse_directions(G, 1e-12)
    c = G @ w_bar.T
    for i in range(2):
        for k in range(2):
            if i != k:
                assert abs(c[i, k]) < 1e-6 * np.linalg.norm(G[i])


def test_mmse_directions_unit_norm():
    rng = np.random.default_rng(41)
    for _ in range(20):
        G = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        w_bar = tm.mmse_directions(G, rng.uniform(0.1, 2.0, 4))
        assert np.max(np.abs(np.linalg.norm(w_bar, axis=1) - 1.0)) < 1e-12


# --- beamformer recovery ------------------------------------------------------------

def test_recover_beamformers_scales_directions():
    d = np.array([[1.0 + 0j, 0.0]])
    bf = tm.recover_beamformers(tm.PowerVector([4.0], p_max=4.0), d)
    assert np.linalg.norm(bf.w[0]) == pytest.approx(2.0, abs=1e-15)

    two = tm.recover_beamformers(
        tm.PowerVector([0.0, 1.0]), np.eye(2, dtype=np.complex128))
    assert np.all(two.w[0] == 0.0)


def test_recover_beamformers_spends_exact_budget():
    rng = np.random.default_rng(51)
    for _ in range(10):
        G = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        w_bar = tm.mmse_directions(G, 1.0)
        p = tm.PowerVector(random_power(rng, 3, 2.5), p_max=2.5)
        bf = tm.recover_beamformers(p, w_bar)
        assert abs(np.sum(np.abs(bf.w) ** 2) - 2.5) < 1e-9


def test_recover_beamformers_requires_typed_power():
    with pytest.raises(TypeError):
        tm.recover_beamformers(np.array([1.0]), np.ones((1, 2), dtype=complex))


# --- rates --------------------------------------------------------------------------

def test_rate_zero_beamformers_is_zero():
    ch = random_channels(np.random.default_rng(61), k=2, n=3, nt=3)
    bf = tm.BeamformerSet(np.zeros((2, 3), dtype=np.complex128))
    phi = np.zeros(3)
    assert tm.rate(ch, 0, bf, phi) == 0.0
    assert tm.rate(ch, 1, bf, phi) == 0.0


def test_rate_unit_snr_is_one_bit():
    rng = np.random.default_rng(71)
    ch = random_channels(rng, k=1, n=3, nt=4, p_max=10.0)
    phi = rng.uniform(0, 2 * np.pi, 3)
    f = tm.cascade_row(ch, 0, phi)
    sigma = np.sqrt(ch.sigma2[0])
    w = sigma * np.conj(f) / np.linalg.norm(f) ** 2  # makes |f . w|^2 = sigma2
    bf = tm.BeamformerSet(w[None, :], p_max=10.0)
    assert tm.rate(ch, 0, bf, phi) == pytest.approx(1.0, abs=1e-12)


def test_rate_paths_agree():
    # power-plus-direction objective equals the full-beamformer evaluation
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 5))
        ch = random_channels(rng, k=k, n=3, nt=4)
        p = random_power(rng, k)
        phi = rng.uniform(0, 2 * np.pi, 3)
        direct = tm.user_rates(ch, p, phi)
        via_bf = rates_via_full_beamformers(ch, p, phi)
        assert np.max(np.abs(direct - via_bf)) < 1e-12


def test_zero_weight_users_contribute_nothing():
    rng = np.random.default_rng(81)
    ch = random_channels(rng, k=3, n=3, nt=4, weights=[2.0, 0.0, 0.0])
    p = random_power(rng, 3)
    phi = rng.uniform(0, 2 * np.pi, 3)
    assert tm.weighted_sum_rate(ch, p, phi) == pytest.approx(
        2.0 * tm.user_rates(ch, p, phi)[0], rel=1e-14)


def test_single_user_weighted_sum_rate():
    rng = np.random.default_rng(91)
    ch = random_channels(rng, k=1, n=3, nt=4, weights=[3.0])
    phi = rng.uniform(0, 2 * np.pi, 3)
    assert tm.weighted_sum_rate(ch, [1.0], phi) == pytest.approx(
        3.0 * tm.user_rates(ch, [1.0], phi)[0], rel=1e-14)


def test_rate_monotone_in_own_power():
    rng = np.random.default_rng(101)
    ch = random_channels(rng, k=3, n=4, nt=4)
    phi = rng.uniform(0, 2 * np.pi, 4)
    base = np.array([0.2, 0.3, 0.5])
    last = -1.0
    for own in np.linspace(0.0, 1.0, 11):
        p = base.copy()
        p[1] = own
        r = tm.user_rates(ch, p, phi)[1]
        assert r >= last - 1e-15
        last = r


def test_rate_invariant_under_common_rotation():
    rng = np.random.default_rng(111)
    ch = random_channels(rng, k=2, n=3, nt=4)
    phi = rng.uniform(0, 2 * np.pi, 3)
    G = tm.build_G(ch, phi)
    w_bar = tm.mmse_directions(G, ch.sigma2)
    p = tm.PowerVector(random_power(rng, 2))
    bf = tm.recover_beamformers(p, w_bar)
    spun = tm.BeamformerSet(np.exp(1j * 1.234) * bf.w, p_max=bf.p_max)
    for k in range(2):
        assert tm.rate(ch, k, bf, phi) == pytest.approx(
            tm.rate(ch, k, spun, phi), rel=1e-12)


def test_phase_wrap_invariance():
    rng = np.random.default_rng(121)
    ch = random_channels(rng, k=2, n=4, nt=3)
    p = random_power(rng, 2)
    phi = rng.uniform(0, 2 * np.pi, 4)
    a = tm.weighted_sum_rate(ch, p, phi)
    b = tm.weighted_sum_rate(ch, p, phi + 2 * np.pi)
    assert a == pytest.approx(b, rel=1e-12)


# --- typed container validation -----------------------------------------------------

def test_phase_vector_range_and_wrap():
    with pytest.raises(ValueError):
        tm.PhaseVector([0.0, 2 * np.pi])
    with pytest.raises(ValueError):
        tm.PhaseVector([-0.1])
    wrapped = tm.PhaseVector.wrapped([2 * np.pi + 0.5, -0.5, -1e-18, 2 * np.pi,
                                      7.0, 0.0])
    assert wrapped.phi[0] == pytest.approx(0.5, rel=1e-12)
    assert wrapped.phi[1] == pytest.approx(2 * np.pi - 0.5, rel=1e-12)
    assert 0.0 <= wrapped.phi[2] < 2 * np.pi
    assert wrapped.phi[3] == 0.0
    assert wrapped.phi[4] == pytest.approx(7.0 - 2 * np.pi, rel=1e-12)
    assert wrapped.phi[5] == 0.0
    assert np.allclose(np.abs(wrapped.unit()), 1.0, rtol=0, atol=1e-15)


def test_power_vector_budget_check():
    tm.PowerVector([0.25, 0.75])
    with pytest.raises(ValueError):
        tm.PowerVector([0.25, 0.70])
    with pytest.raises(ValueError):
        tm.PowerVector([-0.1, 1.1])


def test_beamformer_budget_check():
    with pytest.raises(ValueError):
        tm.BeamformerSet(np.ones((2, 2), dtype=np.complex128), p_max=1.0)


def valid_channel_fields(cls):
    """The fields of a valid ChannelSet, or of a 3-sample ChannelBatch."""
    sets = [random_channels(np.random.default_rng(s), k=2, n=3, nt=4)
            for s in range(3)]
    ok = sets[0] if cls is tm.ChannelSet else tm.ChannelBatch.from_sets(sets)
    return dict(H=ok.H, h=ok.h, g=ok.g, sigma2=ok.sigma2,
                user_weight=ok.user_weight)


@pytest.mark.parametrize("cls", [tm.ChannelSet, tm.ChannelBatch],
                         ids=lambda c: c.__name__)
def test_channel_validation(cls):
    fields = valid_channel_fields(cls)
    H, h, g, sigma2, weight = fields.values()

    def build(**changes):
        return cls(**{**fields, **changes})

    ok = build()
    assert (ok.K, ok.N, ok.NT) == (2, 3, 4)
    with pytest.raises(ValueError, match="^H must have"):
        build(H=H[None])
    with pytest.raises(ValueError, match="^h must be"):
        build(h=h[..., :2])
    with pytest.raises(ValueError, match="^g must be"):
        build(g=g[..., :3])
    with pytest.raises(ValueError, match="^sigma2 and user_weight"):
        build(sigma2=sigma2[..., :1])
    zero_size = {
        "K": dict(h=h[..., :0, :], g=g[..., :0, :], sigma2=sigma2[..., :0],
                  user_weight=weight[..., :0]),
        "N": dict(H=H[..., :0, :], h=h[..., :0]),
        "NT": dict(H=H[..., :0], g=g[..., :0]),
    }
    if cls is tm.ChannelBatch:
        zero_size["S"] = {name: a[:0] for name, a in fields.items()}
    for changes in zero_size.values():
        with pytest.raises(ValueError, match="all dimensions must be at least 1"):
            build(**changes)
    for name in fields:
        bad = fields[name].copy()
        bad.reshape(-1)[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
            build(**{name: bad})
    bad = sigma2.copy()
    bad.reshape(-1)[-1] = 0.0
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        build(sigma2=bad)
    # the weight check is per sample: the last sample's weights alone are bad
    bad = weight.copy()
    bad.reshape(-1, 2)[-1] = 0.0
    with pytest.raises(ValueError, match="user weights"):
        build(user_weight=bad)
    bad.reshape(-1, 2)[-1] = [1.0, -0.5]
    with pytest.raises(ValueError, match="user weights"):
        build(user_weight=bad)
    # finite weights whose sum overflows are valid, and accepted quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build(user_weight=np.full_like(weight, 1e308))
    for p_max in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="p_max"):
            build(p_max=p_max)


# --- batched differentiable evaluation ----------------------------------------------

def test_graph_matches_numpy_objective():
    rng = np.random.default_rng(131)
    sets, powers, phases = [], [], []
    for _ in range(12):
        ch = random_channels(rng, k=3, n=4, nt=5, weights=rng.uniform(0.2, 2.0, 3))
        sets.append(ch)
        powers.append(random_power(rng, 3))
        phases.append(rng.uniform(0, 2 * np.pi, 4))
    batch = tm.ChannelBatch.from_sets(sets)
    out = tm.weighted_sum_rate_graph(batch, np.array(powers), np.array(phases))
    want = [tm.weighted_sum_rate(c, p, f) for c, p, f in zip(sets, powers, phases)]
    assert np.max(np.abs(out.data - np.array(want))) < 1e-10


def test_graph_single_sample_batch():
    rng = np.random.default_rng(141)
    ch = random_channels(rng, k=1, n=2, nt=2)
    batch = tm.ChannelBatch.from_sets([ch])
    p = np.array([[1.0]])
    phi = rng.uniform(0, 2 * np.pi, (1, 2))
    out = tm.weighted_sum_rate_graph(batch, p, phi)
    assert out.data.shape == (1,)
    assert out.data[0] == pytest.approx(tm.weighted_sum_rate(ch, p[0], phi[0]),
                                        rel=1e-12)


def test_graph_gradient_matches_finite_differences():
    rng = np.random.default_rng(151)
    sets = [random_channels(rng, k=2, n=3, nt=3) for _ in range(2)]
    batch = tm.ChannelBatch.from_sets(sets)
    p0 = np.stack([random_power(rng, 2) for _ in range(2)])
    phi0 = rng.uniform(0, 2 * np.pi, (2, 3))
    f = lambda p, phi: ad.tsum(tm.weighted_sum_rate_graph(batch, p, phi))
    report = ad.grad_check(f, [p0, phi0], step=1e-5, tol=1e-4)
    assert report.passed, str(report)


# --- closed-form gradient -----------------------------------------------------------

def random_point(rng, k, n, nt):
    ch = tm.sample_channels(1.0, np.ones(k), np.ones(k), (n, nt), rng, eta=0.0,
                            sigma2=rng.uniform(0.05, 2.0, k),
                            user_weight=rng.uniform(0.2, 2.0, k))
    return ch, random_power(rng, k), rng.uniform(0, 2 * np.pi, n)


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("k,n,nt", [(1, 1, 1), (1, 3, 2), (2, 3, 3), (3, 4, 2),
                                    (4, 8, 8), (5, 2, 3)])
def test_grads_match_tape(k, n, nt):
    # the batched tape node against per-sample calls: values, and gradients
    # scaled by each sample's upstream weight
    rng = np.random.default_rng(1000 + 100 * k + 10 * n + nt)
    points = [random_point(rng, k, n, nt) for _ in range(4)]
    batch = tm.ChannelBatch.from_sets([ch for ch, _, _ in points])
    pt = ad.Tensor(np.stack([p for _, p, _ in points]))
    ft = ad.Tensor(np.stack([phi for _, _, phi in points]))
    upstream = rng.uniform(0.5, 2.0, 4)
    out = tm.weighted_sum_rate_graph(batch, pt, ft)
    ad.tsum(ad.mul(out, upstream)).backward()
    for i, (ch, p, phi) in enumerate(points):
        assert out.data[i] == pytest.approx(tm.weighted_sum_rate(ch, p, phi),
                                            rel=1e-13)
        gp, gphi = tm.weighted_sum_rate_grads(ch, p, phi)
        assert gp.shape == (k,) and gphi.shape == (n,)
        assert rel_gap(pt.grad[i], upstream[i] * gp) <= 1e-12
        assert rel_gap(ft.grad[i], upstream[i] * gphi) <= 1e-12


@pytest.mark.parametrize("k,n,nt", [(1, 1, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3),
                                    (2, 3, 5), (3, 4, 2), (4, 8, 8), (5, 2, 3)])
def test_grads_match_finite_differences(k, n, nt):
    # fourth-order central differences: truncation error O(h^4) and
    # rounding error about eps |f| / h, both far below the tolerance
    rng = np.random.default_rng(2000 + 100 * k + 10 * n + nt)
    step = 3e-4

    def central(x, i, f):
        def at(offset):
            y = x.copy()
            y[i] += offset * step
            return f(y)
        return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * step)

    for _ in range(3):
        ch, p, phi = random_point(rng, k, n, nt)
        p = 0.5 * p + 0.5 / k  # keep p - 2h nonnegative
        gp, gphi = tm.weighted_sum_rate_grads(ch, p, phi)
        fd_p = np.array([central(p, i, lambda v: tm.weighted_sum_rate(ch, v, phi))
                         for i in range(k)])
        fd_phi = np.array([central(phi, i, lambda v: tm.weighted_sum_rate(ch, p, v))
                           for i in range(n)])
        assert rel_gap(gp, fd_p) <= 1e-9
        assert rel_gap(gphi, fd_phi) <= 1e-9


def test_grads_invariant_under_per_user_phase_rotation():
    # e^{j theta_k} on (h_k, g_k) multiplies row f_k by e^{-j theta_k}: the
    # rates, and so the objective and both gradients, do not move
    rng = np.random.default_rng(2101)
    ch, p, phi = random_point(rng, 3, 4, 3)
    rot = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None]
    turned = tm.ChannelSet(H=ch.H, h=ch.h * rot, g=ch.g * rot, sigma2=ch.sigma2,
                           user_weight=ch.user_weight, p_max=ch.p_max)
    assert tm.weighted_sum_rate(turned, p, phi) == pytest.approx(
        tm.weighted_sum_rate(ch, p, phi), rel=1e-12)
    gp, gphi = tm.weighted_sum_rate_grads(ch, p, phi)
    gp2, gphi2 = tm.weighted_sum_rate_grads(turned, p, phi)
    assert rel_gap(gp2, gp) <= 1e-10
    assert rel_gap(gphi2, gphi) <= 1e-10


def assert_same_objective(a, b, p, phi, phi_b=None, phi_perm=None):
    """(a, p, phi) and (b, p, phi_b) have equal rates and gradients, with
    the phase gradient of b permuted by phi_perm."""
    phi_b = phi if phi_b is None else phi_b
    assert rel_gap(tm.user_rates(b, p, phi_b), tm.user_rates(a, p, phi)) <= 1e-12
    gp, gphi = tm.weighted_sum_rate_grads(a, p, phi)
    gp2, gphi2 = tm.weighted_sum_rate_grads(b, p, phi_b)
    assert rel_gap(gp2, gp) <= 1e-10
    want = gphi if phi_perm is None else gphi[phi_perm]
    assert rel_gap(gphi2, want) <= 1e-10


def test_grads_invariant_under_antenna_permutation():
    # relabeling transmit antennas permutes the columns of every row f_k,
    # which leaves F F^H and every |f_k . w_bar_i| unchanged
    rng = np.random.default_rng(2103)
    ch, p, phi = random_point(rng, 3, 4, 5)
    perm = rng.permutation(5)
    swapped = tm.ChannelSet(H=ch.H[:, perm], h=ch.h, g=ch.g[:, perm],
                            sigma2=ch.sigma2, user_weight=ch.user_weight,
                            p_max=ch.p_max)
    assert_same_objective(ch, swapped, p, phi)


def test_grads_follow_an_element_permutation():
    # relabeling surface elements, together with their phases, leaves the
    # cascade unchanged and permutes the phase gradient the same way
    rng = np.random.default_rng(2104)
    ch, p, phi = random_point(rng, 3, 6, 4)
    perm = rng.permutation(6)
    swapped = tm.ChannelSet(H=ch.H[perm], h=ch.h[:, perm], g=ch.g,
                            sigma2=ch.sigma2, user_weight=ch.user_weight,
                            p_max=ch.p_max)
    assert_same_objective(ch, swapped, p, phi, phi_b=phi[perm], phi_perm=perm)


def test_grads_invariant_under_channel_and_noise_scaling():
    # g and H scaled by c scale every row f_k by c; with sigma2 scaled by
    # c^2 every SINR, and so every rate and gradient, stays the same
    rng = np.random.default_rng(2105)
    ch, p, phi = random_point(rng, 4, 3, 5)
    for c in (0.01, 3.7, 250.0):
        scaled = tm.ChannelSet(H=c * ch.H, h=ch.h, g=c * ch.g,
                               sigma2=c * c * ch.sigma2,
                               user_weight=ch.user_weight, p_max=ch.p_max)
        assert_same_objective(ch, scaled, p, phi)


def test_degenerate_user_row_is_rejected():
    # h_k = g_k = 0 gives f_k = 0: no MMSE direction exists for user k
    rng = np.random.default_rng(2106)
    ch, p, phi = random_point(rng, 3, 4, 3)
    h, g = ch.h.copy(), ch.g.copy()
    h[1] = 0.0
    g[1] = 0.0
    dead = tm.ChannelSet(H=ch.H, h=h, g=g, sigma2=ch.sigma2,
                         user_weight=ch.user_weight)
    with pytest.raises(ValueError, match="degenerate"):
        tm.mmse_directions(tm.build_G(dead, phi), dead.sigma2)
    with pytest.raises(ValueError, match="degenerate"):
        tm.weighted_sum_rate(dead, p, phi)
    with pytest.raises(ValueError, match="degenerate"):
        tm.weighted_sum_rate_graph(tm.ChannelBatch.from_sets([ch, dead]),
                                   np.stack([p, p]), np.stack([phi, phi]))


def test_grads_follow_a_user_permutation():
    rng = np.random.default_rng(2102)
    ch, p, phi = random_point(rng, 4, 3, 5)
    perm = np.array([2, 0, 3, 1])
    swapped = tm.ChannelSet(H=ch.H, h=ch.h[perm], g=ch.g[perm],
                            sigma2=ch.sigma2[perm],
                            user_weight=ch.user_weight[perm], p_max=ch.p_max)
    gp, gphi = tm.weighted_sum_rate_grads(ch, p, phi)
    gp2, gphi2 = tm.weighted_sum_rate_grads(swapped, p[perm], phi)
    assert rel_gap(gp2, gp[perm]) <= 1e-10
    assert rel_gap(gphi2, gphi) <= 1e-10


# --- dataset files ------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(161)
    sets = [random_channels(rng, k=2, n=3, nt=4, p_max=2.0) for _ in range(5)]
    batch = tm.ChannelBatch.from_sets(sets)
    path = tmp_path / "channels.risd"
    tm.save_dataset(path, batch, meta={"seed": 161, "note": "round trip"})
    loaded, sidecar = tm.load_dataset(path)
    assert np.array_equal(loaded.H, batch.H)
    assert np.array_equal(loaded.h, batch.h)
    assert np.array_equal(loaded.g, batch.g)
    assert np.array_equal(loaded.sigma2, batch.sigma2)
    assert np.array_equal(loaded.user_weight, batch.user_weight)
    assert loaded.p_max == 2.0
    assert sidecar["seed"] == 161
    assert sidecar["samples"] == 5


def test_dataset_rejects_bad_files(tmp_path):
    rng = np.random.default_rng(171)
    batch = tm.ChannelBatch.from_sets([random_channels(rng, k=1, n=2, nt=2)])
    good = tmp_path / "good.risd"
    tm.save_dataset(good, batch)

    bad_magic = tmp_path / "bad.risd"
    data = good.read_bytes()
    bad_magic.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ValueError, match="magic"):
        tm.load_dataset(bad_magic)

    truncated = tmp_path / "short.risd"
    truncated.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        tm.load_dataset(truncated)

    orphan = tmp_path / "orphan.risd"
    orphan.write_bytes(data)
    with pytest.raises(ValueError, match="sidecar"):
        tm.load_dataset(orphan)

    # headers that parse but declare zero samples, or zero elements
    for name, (k, n, nt, s) in (("empty", (1, 2, 2, 0)), ("flat", (1, 0, 2, 1))):
        path = tmp_path / f"{name}.risd"
        row = 2 * (n * nt + k * n + k * nt) + 2 * k
        path.write_bytes(b"RISD" + struct.pack("<IIIII", 1, k, n, nt, s)
                         + bytes(8 * row * s))
        (tmp_path / f"{name}.risd.json").write_text('{"p_max": 1.0}')
        with pytest.raises(ValueError, match="all dimensions must be at least 1"):
            tm.load_dataset(path)


def test_channel_batch_sample_and_subset():
    rng = np.random.default_rng(181)
    sets = [random_channels(rng, k=2, n=2, nt=3) for _ in range(4)]
    batch = tm.ChannelBatch.from_sets(sets)
    assert len(batch) == 4
    one = batch.sample(2)
    assert np.array_equal(one.H, sets[2].H)
    sub = batch.subset([3, 1])
    assert np.array_equal(sub.H[0], sets[3].H)
    assert np.array_equal(sub.h[1], sets[1].h)

"""Autodiff engine tests: every op's VJP against central finite differences,
plus composition checks."""

import math

import numpy as np
import pytest

from ris_lab import autodiff as ad


def _scalarize(t, c):
    """Reduce tensor t to a scalar via a fixed random weighting c."""
    return ad.tsum(ad.mul(t, c))


# --- trivial derivative identities -------------------------------------------

def test_sigmoid_derivative_at_zero():
    x = ad.Tensor(0.0)
    y = ad.sigmoid(x)
    y.backward()
    assert float(y.data) == 0.5
    assert float(x.grad) == pytest.approx(0.25, abs=1e-15)


def test_sum_of_squares_gradient():
    x = ad.Tensor([1.0, 2.0, 3.0])
    loss = ad.tsum(ad.mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_reused_node_accumulates_once_per_path():
    x = ad.Tensor([3.0])
    y = ad.add(ad.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
    ad.tsum(y).backward()
    assert x.grad.item() == pytest.approx(7.0)


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.mul(x, x).backward()


def test_domain_errors():
    with pytest.raises(ValueError):
        ad.reciprocal(ad.Tensor([0.0]))
    with pytest.raises(ValueError):
        ad.sqrt(ad.Tensor([-1.0]))


def test_grad_check_identity_exact():
    report = ad.grad_check(lambda x: ad.tsum(x), [np.array([1.0, 2.0])])
    assert report.passed
    assert report.max_rel_err < 1e-9


# --- per-op finite-difference sweep ------------------------------------------

def _op_cases(rng):
    """(name, f, inputs) triples covering every registered op."""
    c1 = rng.standard_normal((2, 3))
    c2 = rng.standard_normal((2, 3, 4))
    c24 = rng.standard_normal((2, 4))
    c3 = rng.standard_normal(3)
    c4 = rng.standard_normal(4)
    c63 = rng.standard_normal((6, 3))
    pos = lambda shape: rng.uniform(0.5, 2.0, shape)
    sym = lambda shape: np.where(np.abs(z := rng.standard_normal(shape)) < 0.05, z + 0.1, z)

    cases = [
        ("add", lambda a, b: _scalarize(ad.add(a, b), c1), [sym((2, 3)), sym((2, 3))]),
        ("add_broadcast", lambda a, b: _scalarize(ad.add(a, b), c2), [sym((2, 1, 4)), sym((3, 1))]),
        ("sub", lambda a, b: _scalarize(ad.sub(a, b), c1), [sym((2, 3)), sym((1, 3))]),
        ("mul", lambda a, b: _scalarize(ad.mul(a, b), c1), [sym((2, 3)), sym((2, 3))]),
        ("neg", lambda a: _scalarize(ad.neg(a), c1), [sym((2, 3))]),
        ("reciprocal", lambda a: _scalarize(ad.reciprocal(a), c1), [pos((2, 3))]),
        ("sqrt", lambda a: _scalarize(ad.sqrt(a), c1), [pos((2, 3))]),
        ("relu", lambda a: _scalarize(ad.relu(a), c1), [sym((2, 3))]),
        ("sigmoid", lambda a: _scalarize(ad.sigmoid(a), c1), [3.0 * sym((2, 3))]),
        ("softmax", lambda a: _scalarize(ad.softmax(a, axis=-1), c1), [2.0 * sym((2, 3))]),
        ("matmul", lambda a, b: _scalarize(ad.matmul(a, b), c24),
         [sym((2, 3)), sym((3, 4))]),
        ("matmul_batched", lambda a, b: _scalarize(ad.matmul(a, b), c2),
         [sym((2, 3, 5)), sym((5, 4))]),
        ("transpose_last2", lambda a: _scalarize(ad.transpose_last2(a), c1.T), [sym((2, 3))]),
        ("sum_axis", lambda a: _scalarize(ad.tsum(a, axis=0), c3), [sym((4, 3))]),
        ("mean_axis", lambda a: _scalarize(ad.tmean(a, axis=1), c4), [sym((4, 3))]),
        ("batchnorm_train",
         lambda x, gm, bt: _scalarize(ad.batchnorm_train(x, gm, bt)[0], c63),
         [rng.standard_normal((6, 3)), pos(3), sym(3)]),
    ]
    return cases


def test_every_op_vjp_matches_finite_differences():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        for name, f, inputs in _op_cases(rng):
            report = ad.grad_check(f, inputs, step=1e-5, tol=1e-4)
            if not report.passed:
                failures.append((seed, name, report.max_rel_err))
    assert not failures, f"VJP mismatches: {failures[:10]}"


def test_chain_rule_composition():
    # f(g(x)) with g = sigmoid, f = sqrt(1 + y^2): compare against the
    # product form
    rng = np.random.default_rng(33)
    for _ in range(20):
        x0 = float(rng.uniform(-1.0, 1.0))
        x = ad.Tensor(x0)
        y = ad.sigmoid(x)
        z = ad.sqrt(ad.add(ad.mul(y, y), 1.0))
        z.backward()
        y0 = 1.0 / (1.0 + math.exp(-x0))
        manual = (y0 / math.sqrt(1.0 + y0 * y0)) * y0 * (1.0 - y0)
        assert float(x.grad) == pytest.approx(manual, rel=1e-10)


def test_two_layer_relu_net_gradient():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((5, 4))
    w1, b1 = rng.standard_normal((6, 4)), rng.standard_normal(6)
    w2, b2 = rng.standard_normal((2, 6)), rng.standard_normal(2)

    def net(w1t, b1t, w2t, b2t):
        h = ad.relu(ad.add(ad.matmul(ad.Tensor(x), ad.transpose_last2(w1t)), b1t))
        o = ad.add(ad.matmul(h, ad.transpose_last2(w2t)), b2t)
        return ad.tsum(ad.mul(o, o))

    report = ad.grad_check(net, [w1, b1, w2, b2], step=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_batchnorm_statistics_and_infer_consistency():
    rng = np.random.default_rng(66)
    x = rng.standard_normal((8, 5))
    gamma, beta = ad.Tensor(rng.uniform(0.5, 1.5, 5)), ad.Tensor(rng.standard_normal(5))
    y, mu, var = ad.batchnorm_train(ad.Tensor(x), gamma, beta)
    assert mu == pytest.approx(x.mean(axis=0))
    assert var == pytest.approx(x.var(axis=0))
    # normalizing with the returned statistics frozen, as inference does,
    # reproduces the train output
    y2 = (x - mu) / np.sqrt(var + 1e-5) * gamma.data + beta.data
    assert np.max(np.abs(y.data - y2)) < 1e-10


def test_broadcast_unbroadcast_shapes():
    a = ad.Tensor(np.ones((3, 1, 4)))
    b = ad.Tensor(np.ones((2, 4)))
    out = ad.tsum(ad.mul(a, b))
    out.backward()
    assert a.grad.shape == (3, 1, 4)
    assert b.grad.shape == (2, 4)
    assert np.allclose(a.grad, 2.0)  # summed over the broadcast axis of size 2
    assert np.allclose(b.grad, 3.0)

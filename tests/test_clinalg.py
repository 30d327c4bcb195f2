"""Complex linear algebra tests, including the 2x2 adjugate-inverse oracle
for the Hermitian solve."""

import numpy as np
import pytest

from ris_lab.clinalg import (
    NotPositiveDefiniteError,
    as_cmat,
    cholesky_hpd,
    gram,
    solve_hpd,
)


def _crand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _herm(a):
    return np.conj(np.swapaxes(a, -1, -2))


def test_gram_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _crand(rng, 3, 6)
        gm = gram(a)
        assert np.allclose(gm, _herm(gm))
        v = _crand(rng, 3)
        q = np.real(np.conjugate(v) @ gm @ v)
        assert q >= -1e-12


def test_solve_identity_and_scaled():
    rng = np.random.default_rng(4)
    b = _crand(rng, 3, 2)
    assert np.allclose(solve_hpd(np.eye(3), b), b)
    assert np.allclose(solve_hpd(2 * np.eye(3), np.eye(3)), 0.5 * np.eye(3))


def test_solve_matches_2x2_adjugate_oracle():
    # closed-form 2x2 inverse: inv([[a,b],[c,d]]) = [[d,-b],[-c,a]] / (ad - bc)
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = _crand(rng, 2, 4)
        m = gram(g) + 0.5 * np.eye(2)
        a, b = m[0, 0], m[0, 1]
        c, d = m[1, 0], m[1, 1]
        det = a * d - b * c
        inv = np.array([[d, -b], [-c, a]]) / det
        got = solve_hpd(m, np.eye(2))
        assert np.max(np.abs(got - inv)) < 1e-12 * np.max(np.abs(inv))


def test_solve_residual_bound_up_to_8x8():
    rng = np.random.default_rng(6)
    for k in range(1, 9):
        for _ in range(10):
            g = _crand(rng, k, k + 3)
            m = gram(g) + np.eye(k)
            x = solve_hpd(m, np.eye(k))
            res = np.linalg.norm(m @ x - np.eye(k))
            assert res < 1e-10 * np.linalg.norm(np.eye(k))


def test_solve_batched_matches_loop():
    rng = np.random.default_rng(7)
    g = _crand(rng, 5, 3, 6)
    m = gram(g) + np.eye(3)
    b = _crand(rng, 5, 3, 2)
    batched = solve_hpd(m, b)
    for i in range(5):
        single = solve_hpd(m[i], b[i])
        assert np.array_equal(batched[i], single)  # same code path, bit-identical


def test_solve_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        solve_hpd(-np.eye(2), np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        # PSD but singular: rank-1 gram
        v = np.array([[1.0 + 0j, 2.0]])
        solve_hpd(gram(_herm(v)), np.eye(2))


def test_solve_rejects_one_non_pd_matrix_in_a_batch():
    rng = np.random.default_rng(10)
    m = gram(_crand(rng, 4, 3, 5)) + np.eye(3)
    m[2] = -m[2]
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        cholesky_hpd(m)
    with pytest.raises(NotPositiveDefiniteError):
        solve_hpd(m, np.eye(3))


def test_solve_broadcasts_one_rhs_over_a_batch():
    # B one dimension short of M: a shared (K, R) right-hand side, not a
    # stack of vectors
    rng = np.random.default_rng(11)
    m = gram(_crand(rng, 5, 3, 6)) + np.eye(3)
    b = _crand(rng, 3, 2)
    batched = solve_hpd(m, b)
    assert batched.shape == (5, 3, 2)
    for i in range(5):
        assert np.array_equal(batched[i], solve_hpd(m[i], b))


def test_solve_dimension_checks():
    with pytest.raises(ValueError):
        solve_hpd(np.eye(3)[:2], np.eye(3))
    with pytest.raises(ValueError):
        solve_hpd(np.eye(3), np.ones((2, 2)))


def test_cholesky_reads_only_lower_triangle():
    rng = np.random.default_rng(8)
    g = _crand(rng, 4, 6)
    m = gram(g) + np.eye(4)
    m2 = m.copy()
    m2[np.triu_indices(4, k=1)] = 123.0 + 4.56j  # garbage in strict upper triangle
    assert np.array_equal(cholesky_hpd(m), cholesky_hpd(m2))


def test_cholesky_ignores_imaginary_part_of_diagonal():
    rng = np.random.default_rng(9)
    m = gram(_crand(rng, 4, 6)) + np.eye(4)
    m2 = m.copy()
    m2[np.diag_indices(4)] += 1j * rng.uniform(-50.0, 50.0, 4)
    L = cholesky_hpd(m)
    assert np.array_equal(L, cholesky_hpd(m2))
    assert np.allclose(L @ _herm(L), m, rtol=0, atol=1e-12)


def test_complex128_view_is_interleaved_pairs():
    # storage contract: row-major complex128 == interleaved (re, im) float64
    a = as_cmat(np.array([[1 + 2j, 3 + 4j]]))
    v = np.ascontiguousarray(a).view(np.float64)
    assert v.tolist() == [[1.0, 2.0, 3.0, 4.0]]

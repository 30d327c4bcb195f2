"""Dense complex linear algebra on numpy complex128 arrays.

A C-contiguous complex128 array viewed as float64 exposes row-major
interleaved (real, imag) pairs with zero copy, which is exactly the layout
the network input vector and the binary dataset format use. Matrices here
are small (K <= 16) and often batched, so the Hermitian-positive-definite
solve hands each stack to LAPACK: a Cholesky factorization, which reads
only the lower triangle and the real part of the diagonal, guards positive
definiteness, and a general solve produces the result.
"""

from __future__ import annotations

import numpy as np


class NotPositiveDefiniteError(ValueError):
    pass


def as_cmat(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"{name} must have at least 2 dimensions, got {a.ndim}")
    if a.shape[-1] < 1 or a.shape[-2] < 1:
        raise ValueError(f"{name} must be at least 1x1")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def gram(a) -> np.ndarray:
    """A @ A^H, Hermitian positive semi-definite by construction."""
    a = as_cmat(a)
    return a @ np.conjugate(np.swapaxes(a, -1, -2))


def cholesky_hpd(m) -> np.ndarray:
    """Lower-triangular L with M = L L^H for Hermitian positive definite M.

    Accepts (..., K, K); only the lower triangle and the real part of the
    diagonal of M are read. Raises NotPositiveDefiniteError("not positive
    definite") when any matrix of the stack has a non-positive pivot.
    """
    return _cholesky(as_cmat(m, "M"))


def _cholesky(m):
    """cholesky_hpd on an M that as_cmat has already checked."""
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"M must be square, got {m.shape}")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("not positive definite") from None


def solve_hpd(m, b) -> np.ndarray:
    """Solve M X = B for Hermitian positive definite M.

    M: (..., K, K); B: (..., K, R), leading dimensions broadcast. The
    Cholesky factorization only guards positive definiteness; X comes from
    one batched LAPACK solve, which beats two triangular solves on stacks.
    Residual satisfies ||M X - B||_F <= 1e-10 ||B||_F for well-conditioned M.
    """
    m = as_cmat(m, "M")
    b = as_cmat(b, "B")
    if b.shape[-2] != m.shape[-1]:
        raise ValueError(f"dimension mismatch: M is {m.shape}, B is {b.shape}")
    _cholesky(m)
    # Broadcast explicitly: numpy 1.x reads a B one dimension short of M as
    # a stack of vectors.
    lead = np.broadcast_shapes(m.shape[:-2], b.shape[:-2])
    return np.linalg.solve(np.broadcast_to(m, lead + m.shape[-2:]),
                           np.broadcast_to(b, lead + b.shape[-2:]))

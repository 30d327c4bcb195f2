"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run tape in the micrograd style: every op returns a Tensor holding
its value, its parents and a closure that propagates the upstream gradient.
backward() topologically sorts the implicit tape and visits each node once in
reverse order.

The tape is real-valued. It is the gradient oracle for the policy's
hand-written training step: policy.loss builds the network and its loss
on it, and tests check the step against its backward. No run path uses
it. A complex computation enters as one node whose forward and backward
are written in complex numpy by its owner
(transmit.weighted_sum_rate_graph), so finite-difference checking stays
coordinate-wise real.

Elementwise ops broadcast like numpy; backward un-broadcasts by summing the
gradient over the broadcast axes. matmul follows numpy stacked-matrix
semantics (leading batch dimensions broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Array value plus gradient slot and backward closure.

    version counts in-place updates of data, so that a value derived from
    it can tell that it is out of date (policy.adam_step bumps it).
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "version")

    def __init__(self, data, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = None
        self.version = 0

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode sweep seeding d(self)/d(self) = 1; self must be scalar."""
        if self.data.size != 1:
            raise ValueError("backward expects a scalar loss tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --- elementwise primitives ---------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def _bw(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(g, b.data.shape))

    out._backward = _bw
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def _bw(g):
        a._accum(_unbroadcast(g, a.data.shape))
        b._accum(_unbroadcast(-g, b.data.shape))

    out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def _bw(g):
        a._accum(_unbroadcast(g * b.data, a.data.shape))
        b._accum(_unbroadcast(g * a.data, b.data.shape))

    out._backward = _bw
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data, (a,))
    out._backward = lambda g: a._accum(-g)
    return out


def reciprocal(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data == 0.0):
        raise ValueError("reciprocal: zero input")
    y = 1.0 / a.data
    out = Tensor(y, (a,))
    out._backward = lambda g: a._accum(-g * y * y)
    return out


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: negative input")
    y = np.sqrt(a.data)
    out = Tensor(y, (a,))
    out._backward = lambda g: a._accum(g / (2.0 * y))
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))
    out._backward = lambda g: a._accum(g * (a.data > 0.0))
    return out


def logistic(x: np.ndarray) -> np.ndarray:
    """The logistic function on an array, written so that it never
    overflows; sigmoid's forward pass and the policy's training step."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_values(x: np.ndarray, axis=-1) -> np.ndarray:
    """Softmax of an array along axis, shifted by its maximum; softmax's
    forward pass and the policy's training step."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = logistic(a.data)
    out = Tensor(y, (a,))
    out._backward = lambda g: a._accum(g * y * (1.0 - y))
    return out


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    y = softmax_values(a.data, axis=axis)
    out = Tensor(y, (a,))

    def _bw(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        a._accum((g - inner) * y)

    out._backward = _bw
    return out


# --- shape / reduction primitives ---------------------------------------------

def transpose_last2(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ValueError("transpose_last2 needs ndim >= 2")
    out = Tensor(np.swapaxes(a.data, -1, -2), (a,))
    out._backward = lambda g: a._accum(np.swapaxes(g, -1, -2))
    return out


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def _bw(g):
        if axis is None:
            a._accum(np.full(a.data.shape, float(np.asarray(g).reshape(()))))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accum(np.broadcast_to(gg, a.data.shape))

    out._backward = _bw
    return out


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul needs ndim >= 2 on both sides")
    out = Tensor(a.data @ b.data, (a, b))

    def _bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        a._accum(_unbroadcast(ga, a.data.shape))
        b._accum(_unbroadcast(gb, b.data.shape))

    out._backward = _bw
    return out


# --- batchnorm ------------------------------------------------------------------

def batchnorm_train(x, gamma, beta, eps=1e-5):
    """Batch normalization over axis 0 using batch statistics.

    Built from primitive ops so the backward pass includes the dependence of
    the batch mean/variance on x. Returns (y, batch_mean, batch_var) with the
    statistics as plain arrays for the caller's running-average update.
    """
    x = as_tensor(x)
    mu = tmean(x, axis=0, keepdims=True)
    xc = sub(x, mu)
    var = tmean(mul(xc, xc), axis=0, keepdims=True)
    inv = reciprocal(sqrt(add(var, eps)))
    y = add(mul(mul(xc, inv), gamma), beta)
    return y, mu.data.reshape(-1).copy(), var.data.reshape(-1).copy()


# --- gradient checking --------------------------------------------------------------

@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    worst_input: int
    worst_coord: int
    analytic: float
    numeric: float

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"grad_check {tag}: max_rel_err={self.max_rel_err:.3e} "
                f"(input {self.worst_input}, coord {self.worst_coord}, "
                f"analytic {self.analytic:.6e}, numeric {self.numeric:.6e})")


def grad_check(f, inputs, step=1e-5, tol=1e-4) -> GradCheckReport:
    """Compare backward() gradients of scalar-valued f against central
    finite differences, coordinate by coordinate.

    The relative error denominator is floored at 1e-6 * (1 + |f(x)|): below
    that scale a derivative is indistinguishable from finite-difference
    noise in double precision at the given step.
    """
    arrays = [np.array(x, dtype=np.float64) for x in inputs]
    leaves = [Tensor(a) for a in arrays]
    out = f(*leaves)
    if out.data.size != 1:
        raise ValueError("grad_check expects a scalar-valued function")
    out.backward()
    grads = [np.zeros_like(a) if t.grad is None else t.grad.copy()
             for a, t in zip(arrays, leaves)]
    f0 = float(out.data)
    floor = 1e-6 * (1.0 + abs(f0))

    def _eval():
        return float(f(*[Tensor(a) for a in arrays]).data)

    worst = (0.0, 0, 0, 0.0, 0.0)
    for i, a in enumerate(arrays):
        flat = a.reshape(-1)
        gflat = grads[i].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            fp = _eval()
            flat[j] = keep - step
            fm = _eval()
            flat[j] = keep
            fd = (fp - fm) / (2.0 * step)
            rel = abs(gflat[j] - fd) / max(abs(gflat[j]) + abs(fd), floor)
            if rel > worst[0]:
                worst = (rel, i, j, gflat[j], fd)
    rel, wi, wj, ga, gn = worst
    return GradCheckReport(rel < tol, rel, wi, wj, ga, gn)

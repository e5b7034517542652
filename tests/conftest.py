import numpy as np
import pytest

from mswavenet.autodiff import GradientTape


def finite_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2 * h)
    return grad


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def backward_keeping_tape(loss):
    """Reference backward that leaves the tape intact: the traversal
    autodiff.backward made before it consumed the tape, in the same order."""
    tape = GradientTape(loss)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

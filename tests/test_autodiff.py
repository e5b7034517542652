import multiprocessing
import re
import threading
import time
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mswavenet import autodiff as ad
from mswavenet import graph
from mswavenet.autodiff import ShapeMismatchError, Variable
from mswavenet.model import BATCH_MAJOR

import batch_major
from conftest import finite_difference, rel_err


class TestElementwise:
    def test_activation_fixed_points(self):
        assert float(ad.tanh(Variable(0.0)).value) == 0.0
        assert float(ad.sigmoid(Variable(0.0)).value) == 0.5
        assert float(ad.relu(Variable(-1.0)).value) == 0.0

    def test_add(self):
        out = ad.add(Variable([1.0, 2.0]), Variable([3.0, 4.0]))
        np.testing.assert_array_equal(out.value, [4.0, 6.0])

    def test_tanh_gradient_vs_finite_difference(self):
        x = Variable(np.array(0.3))
        y = ad.tanh(x)
        ad.backward(y)
        fd = finite_difference(lambda v: np.tanh(v).item(), np.array(0.3))
        assert rel_err(x.grad, fd) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ad.add(Variable([1.0, 2.0]), Variable([1.0, 2.0, 3.0]))

    def test_leading_batch_broadcast(self):
        a = Variable(np.ones((3, 2)))
        b = Variable(np.array([1.0, 2.0]))
        out = ad.add(a, b)
        np.testing.assert_array_equal(out.value, [[2, 3]] * 3)
        ad.backward(ad.total(out))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])

    def test_relu_keeps_nan_and_masks_gradient_like_x_gt_0(self):
        x_val = np.array([np.nan, -np.inf, np.inf, -1.0, -0.0, 0.0, 2.0])
        x = Variable(x_val)
        out = ad.relu(x)
        np.testing.assert_array_equal(out.value, [np.nan, 0.0, np.inf, 0.0, 0.0, 0.0, 2.0])
        ad.backward(ad.total(out))
        np.testing.assert_array_equal(x.grad, (x_val > 0).astype(float))

    def test_gradient_accumulates_across_reuse(self):
        x = Variable(np.array(2.0))
        y = ad.add(ad.multiply(x, x), x)  # x^2 + x
        ad.backward(y)
        assert float(x.grad) == pytest.approx(5.0)


class TestMatmul:
    def test_identity(self, rng):
        x = rng.normal(size=(3, 4))
        out = ad.matmul(Variable(np.eye(3)), Variable(x))
        np.testing.assert_allclose(out.value, x)

    def test_hand_multiplication(self):
        out = ad.matmul(Variable([[1.0, 2.0], [3.0, 4.0]]), Variable([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [7.0]])

    def test_grad_of_sum_is_ones_bt(self, rng):
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a, b = Variable(a_val), Variable(b_val)
        ad.backward(ad.total(ad.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_val.T)
        fd = finite_difference(lambda v: (v @ b_val).sum(), a_val)
        assert rel_err(a.grad, fd) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.matmul(Variable(np.ones((2, 3))), Variable(np.ones((2, 3))))


class TestDilatedCausalConv:
    """Inputs and outputs are [C, W, B, N]: channel, time, batch, node."""

    def test_identity_tap(self, rng):
        x = rng.normal(size=(1, 5, 2, 3))
        out = ad.conv_time_dilated_causal(Variable(x), Variable(np.ones((1, 1, 1))), 1)
        np.testing.assert_allclose(out.value, x)

    def test_k2_d1_sliding_sum(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = ad.conv_time_dilated_causal(
            Variable(x), Variable(np.ones((1, 1, 2))), 1
        )
        np.testing.assert_array_equal(out.value.ravel(), [1.0, 3.0, 5.0, 7.0])

    def test_k2_d2_sliding_sum(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = ad.conv_time_dilated_causal(
            Variable(x), Variable(np.ones((1, 1, 2))), 2
        )
        np.testing.assert_array_equal(out.value.ravel(), [1.0, 2.0, 4.0, 6.0])

    def test_receptive_field_warning(self):
        x = Variable(np.zeros((1, 4, 1, 1)))
        with pytest.warns(RuntimeWarning, match="receptive field"):
            ad.conv_time_dilated_causal(x, Variable(np.ones((1, 1, 5))), 1)

    def test_causality_perturbation(self, rng):
        x = rng.normal(size=(2, 10, 1, 1))
        kern = rng.normal(size=(3, 2, 3))
        base = ad.conv_time_dilated_causal(Variable(x), Variable(kern), 2).value
        t0 = 6
        xp = x.copy()
        xp[:, t0] += 1.0
        pert = ad.conv_time_dilated_causal(Variable(xp), Variable(kern), 2).value
        diff = np.abs(pert - base).sum(axis=(0, 2, 3))
        assert np.all(diff[:t0] == 0.0)
        assert diff[t0] > 0.0

    def test_gradients_vs_finite_difference(self, rng):
        x_val = rng.normal(size=(2, 6, 2, 2))
        k_val = rng.normal(size=(3, 2, 2))
        x, k = Variable(x_val), Variable(k_val)
        ad.backward(ad.total(ad.conv_time_dilated_causal(x, k, 2)))

        def loss_x(v):
            return float(
                ad.conv_time_dilated_causal(Variable(v), Variable(k_val), 2).value.sum()
            )

        def loss_k(v):
            return float(
                ad.conv_time_dilated_causal(Variable(x_val), Variable(v), 2).value.sum()
            )

        assert rel_err(x.grad, finite_difference(loss_x, x_val)) < 1e-6
        assert rel_err(k.grad, finite_difference(loss_k, k_val)) < 1e-6

    @pytest.mark.parametrize("lags", [[0], [2, 0], [0, 3, 1], [5, 1], [9, 0, 4], [7]])
    def test_matches_batch_major_reference(self, rng, lags):
        """Forward and every gradient equal the [B, C, N, W] implementation,
        also for taps whose lag reaches past the window and without lag 0."""
        x_val = rng.normal(size=(3, 6, 2, 4))
        k_val = rng.normal(size=(5, len(lags), 3))  # [Co, L, Ci]
        b_val = rng.normal(size=5)
        w_val = rng.normal(size=(5, 6, 2, 4))
        to_bm = batch_major.from_time_major
        results = []
        for conv, x_in, w in ((ad.conv_time_causal, x_val, w_val),
                              (batch_major.conv_time_causal, to_bm(x_val), to_bm(w_val))):
            x, k, b = Variable(x_in), Variable(k_val), Variable(b_val)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # lag 9 >= window 6
                out = conv(x, k, lags, b)
            ad.backward(ad.total(ad.multiply(out, Variable(w, requires_grad=False))))
            results.append([out.value, x.grad, k.grad, b.grad])
        results[0][:2] = [to_bm(a) for a in results[0][:2]]
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12

    def test_strided_input_view(self, rng):
        """A transposed view of x gives the same output and gradients as a
        contiguous copy of it."""
        view = rng.normal(size=(2, 3, 4, 6)).transpose(1, 3, 0, 2)  # [C, W, B, N]
        assert not view.flags.c_contiguous
        k_val = rng.normal(size=(5, 3, 3))
        w = Variable(rng.normal(size=(5, 6, 2, 4)), requires_grad=False)
        results = []
        for x_val in (view, np.ascontiguousarray(view)):
            x, k = Variable(x_val), Variable(k_val)
            out = ad.conv_time_causal(x, k, [0, 1, 3])
            ad.backward(ad.total(ad.multiply(out, w)))
            results.append([out.value, x.grad, k.grad])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


    @pytest.mark.parametrize("lag", [1.5, 1.0, True])
    def test_rejects_a_lag_that_is_not_an_int(self, lag):
        x, k = Variable(np.ones((1, 4, 1, 1))), Variable(np.ones((1, 2, 1)))
        with pytest.raises(ValueError, match=re.escape(f"lag {lag!r} is not an int")):
            ad.conv_time_causal(x, k, [0, lag])

    def test_numpy_int_lags(self, rng):
        x, k = rng.normal(size=(2, 5, 1, 3)), rng.normal(size=(3, 2, 2))
        got = ad.conv_time_causal(x, k, [np.int64(0), np.int64(2)]).value
        np.testing.assert_array_equal(got, ad.conv_time_causal(x, k, [0, 2]).value)


@st.composite
def _causal_conv_cases(draw):
    """(Ci, Co, W, B, N), lags, _BLOCK_COLS and a data seed on tiny shapes;
    lags may repeat, miss 0 and reach past the window."""
    ci, co, w, b, n = (draw(st.integers(1, hi)) for hi in (3, 3, 6, 2, 3))
    lags = draw(st.lists(st.integers(0, w + 2), min_size=1, max_size=5))
    return (ci, co, w, b, n), lags, draw(st.integers(1, w * b * n)), draw(st.integers(0, 2**32 - 1))


class TestCausalConvProperties:
    """conv_time_causal against the [B, C, N, W] reference for random lag
    sets and block sizes, so that single-step blocks, a partial last block
    and taps that read before t = 0 all occur."""

    @settings(max_examples=300, deadline=None)
    @given(_causal_conv_cases())
    @example(((2, 2, 5, 2, 3), [3, 1, 3, 7], 4, 0))  # one step per block
    @example(((2, 1, 5, 1, 2), [3, 0, 1, 9], 5, 1))  # two-step blocks, a partial last
    def test_matches_batch_major_reference(self, case):
        (ci, co, w, b, n), lags, block_cols, seed = case
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=(ci, w, b, n))
        k_val = rng.normal(size=(co, len(lags), ci))
        b_val = rng.normal(size=co)
        up = rng.normal(size=(co, w, b, n))
        to_bm = batch_major.from_time_major
        results = []
        with mock.patch.object(ad, "_BLOCK_COLS", block_cols), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # lags past the window
            for conv, x_in, g in ((ad.conv_time_causal, x_val, up),
                                  (batch_major.conv_time_causal, to_bm(x_val), to_bm(up))):
                x, k, bias = Variable(x_in), Variable(k_val), Variable(b_val)
                out = conv(x, k, lags, bias)
                ad.backward(ad.total(ad.multiply(out, Variable(g, requires_grad=False))))
                results.append([out.value, x.grad, k.grad, bias.grad])
        results[0][:2] = [to_bm(a) for a in results[0][:2]]
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12


class TestConv1x1:
    def test_identity(self, rng):
        x = rng.normal(size=(3, 5, 2, 4))
        out = ad.conv_1x1(Variable(x), Variable(np.eye(3)), Variable(np.zeros(3)))
        np.testing.assert_allclose(out.value, x)

    def test_channel_sum(self):
        x = np.zeros((2, 1, 1, 1))
        x[:, 0, 0, 0] = [3.0, 4.0]
        out = ad.conv_1x1(Variable(x), Variable([[1.0, 1.0]]), Variable([0.0]))
        assert float(out.value[0, 0, 0, 0]) == 7.0

    def test_gradient_vs_finite_difference(self, rng):
        x_val = rng.normal(size=(3, 4, 2, 2))
        w_val = rng.normal(size=(2, 3))
        b_val = rng.normal(size=2)
        x, w, b = Variable(x_val), Variable(w_val), Variable(b_val)
        ad.backward(ad.total(ad.conv_1x1(x, w, b)))
        fd_w = finite_difference(
            lambda v: float(ad.conv_1x1(Variable(x_val), Variable(v), Variable(b_val)).value.sum()),
            w_val,
        )
        assert rel_err(w.grad, fd_w) < 1e-5


class TestConcat:
    def test_single_argument(self, rng):
        x = rng.normal(size=(2, 4, 1, 3))
        np.testing.assert_array_equal(ad.concat_channels([Variable(x)]).value, x)

    def test_widths_and_slices(self, rng):
        a = rng.normal(size=(2, 4, 1, 3))
        b = rng.normal(size=(3, 4, 1, 3))
        out = ad.concat_channels([Variable(a), Variable(b)])
        assert out.value.shape == (5, 4, 1, 3)
        np.testing.assert_array_equal(out.value[:2], a)
        np.testing.assert_array_equal(out.value[2:], b)

    def test_backward_splits_ones(self, rng):
        a = Variable(rng.normal(size=(2, 4, 1, 3)))
        b = Variable(rng.normal(size=(3, 4, 1, 3)))
        ad.backward(ad.total(ad.concat_channels([a, b])))
        np.testing.assert_array_equal(a.grad, np.ones(a.value.shape))
        np.testing.assert_array_equal(b.grad, np.ones(b.value.shape))

    def test_non_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.concat_channels([Variable(np.ones((2, 4, 1, 3))), Variable(np.ones((2, 5, 1, 3)))])


class TestPermute:
    def test_values_are_a_contiguous_transpose(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = ad.permute(Variable(x), (1, 3, 0, 2)).value
        np.testing.assert_array_equal(out, x.transpose(1, 3, 0, 2))
        assert out.flags.c_contiguous

    def test_gradient_is_permuted_back(self, rng):
        x = Variable(rng.normal(size=(2, 3, 4, 5)))
        w = rng.normal(size=(3, 5, 2, 4))
        ad.backward(ad.total(ad.multiply(ad.permute(x, (1, 3, 0, 2)), Variable(w, requires_grad=False))))
        np.testing.assert_array_equal(x.grad, w.transpose(2, 0, 3, 1))
        assert x.grad.flags.c_contiguous


class TestUpstreamGradientUnchanged:
    """A backward may not change in place the gradient it is handed: the
    Variable it came from, or another one, may hold that array."""

    @pytest.mark.parametrize(
        "op", [ad.relu, ad.gated_tanh_sigmoid], ids=["relu", "gated_tanh_sigmoid"]
    )
    def test_backward_leaves_g_as_it_was(self, rng, op):
        x = Variable(rng.normal(size=(4, 3, 2, 2)))
        out = op(x)
        g = rng.normal(size=out.value.shape)
        before = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, before)
        assert x.grad is not g and not np.shares_memory(x.grad, g)


def _compose_one_unit(w, b, k1, k2):
    kernel, bias = ad.compose_causal_kernel([(w, b, [(k1, 1), (k2, 2)])], [0, 1, 2, 4])
    x = np.linspace(-1.0, 1.0, 10).reshape(2, 5, 1, 1)
    return ad.conv_time_causal(x, kernel, [0, 1, 2, 4], bias)


def _compose_and_run_head(conv_w, conv_b, dense_w, dense_b):
    kernel, bias = ad.compose_head(conv_w, conv_b, dense_w, dense_b, nodes=2)
    x = np.linspace(-1.0, 1.0, 2 * 4 * 3 * 2).reshape(2, 4, 3, 2)  # [C, W, B, N]
    return ad.dense_time_major(x, kernel, bias)


_OPERAND_OPS = {
    "multiply": (ad.multiply, [(3, 4), (3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "dense": (ad.dense, [(3, 4), (2, 4), (2,)]),
    "conv_1x1": (ad.conv_1x1, [(3, 2, 2, 2), (4, 3), (4,)]),
    "node_mix": (graph._node_mix, [(2, 2, 2, 3), (3, 3)]),
    "compose_causal_kernel": (_compose_one_unit, [(2, 4), (2,), (2, 2, 2), (2, 2, 3)]),
    # sorted lags bind the kernel's array; unsorted ones bind its reordered copy
    "conv_time_causal": (
        lambda x, k, b: ad.conv_time_causal(x, k, [0, 1, 3], b), [(2, 5, 1, 2), (3, 3, 2), (3,)]
    ),
    "conv_time_causal_unsorted": (
        lambda x, k, b: ad.conv_time_causal(x, k, [3, 0, 1], b), [(2, 5, 1, 2), (3, 3, 2), (3,)]
    ),
    "fold_conv_1x1": (ad.fold_conv_1x1, [(3, 2, 4), (4, 2), (4,)]),
    "compose_head": (_compose_and_run_head, [(3, 2), (3,), (2, 3 * 2 * 4), (2,)]),
    "dense_time_major": (ad.dense_time_major, [(3, 4, 2, 2), (3, 4, 5, 2), (5,)]),
}


class TestBackwardReadsOperandsAsRecorded:
    """Assigning a new array to an operand's .value between a forward and
    its backward changes no gradient: each op binds the arrays it read."""

    @pytest.mark.parametrize("op", list(_OPERAND_OPS))
    def test_assigning_values_before_backward_changes_no_gradient(self, op, rng):
        fn, shapes = _OPERAND_OPS[op]
        values = [rng.normal(size=shape) for shape in shapes]

        def gradients(edit):
            operands = [Variable(v) for v in values]
            out = fn(*operands)
            loss = ad.mse_loss(out, np.linspace(-1.0, 1.0, out.value.size).reshape(out.shape))
            for v in operands if edit else ():
                v.value = v.value + 1.0
            ad.backward(loss)
            return [v.grad.tobytes() for v in operands]

        assert gradients(edit=True) == gradients(edit=False)


_CONSTANT_OPERAND_OPS = {
    name: _OPERAND_OPS[name]
    for name in ("conv_1x1", "conv_time_causal", "conv_time_causal_unsorted", "dense_time_major")
}
_CONSTANT_OPERAND_OPS["concat_channels"] = (
    lambda a, b: ad.concat_channels([a, b]), [(2, 3, 1, 2), (1, 3, 1, 2)]
)


class TestConstantOperandsGetNoGradient:
    """An op computes no gradient for an operand with requires_grad=False,
    and the other operands' gradients are bitwise those of a run in which
    it takes one."""

    @pytest.mark.parametrize(
        "op, constant",
        [(op, i) for op, (_, shapes) in _CONSTANT_OPERAND_OPS.items() for i in range(len(shapes))],
    )
    def test_constant_operand(self, op, constant, rng):
        fn, shapes = _CONSTANT_OPERAND_OPS[op]
        values = [rng.normal(size=shape) for shape in shapes]

        def gradients(frozen):
            operands = [Variable(v, requires_grad=i != frozen) for i, v in enumerate(values)]
            out = fn(*operands)
            ad.backward(ad.mse_loss(out, np.linspace(-1.0, 1.0, out.value.size).reshape(out.shape)))
            return [None if v.grad is None else v.grad.tobytes() for v in operands]

        frozen, free = gradients(constant), gradients(None)
        assert frozen[constant] is None
        assert frozen[:constant] + frozen[constant + 1 :] == free[:constant] + free[constant + 1 :]


FD_TOL = 1e-6


def _weighted_sum(out, weights):
    """A scalar of out whose gradient is the non-uniform weights."""
    return ad.total(ad.multiply(out, Variable(weights, requires_grad=False)))


def _fd_errors(loss_of, values):
    """Largest relative error of each operand's analytic gradient of the
    scalar loss_of(*operands) against central finite differences."""
    operands = [Variable(v) for v in values]
    ad.backward(loss_of(*operands))
    errors = []
    for i, (v, operand) in enumerate(zip(values, operands)):

        def scalar(w, i=i):
            args = [Variable(u) for u in values]
            args[i] = Variable(w)
            return float(loss_of(*args).value)

        errors.append(rel_err(operand.grad, finite_difference(scalar, v)))
    return errors


_tiny = st.integers(1, 3)


@st.composite
def _lag_sets(draw, window):
    """Distinct lags, possibly without 0 and reaching past the window."""
    return sorted(draw(st.sets(st.integers(0, window + 2), min_size=1, max_size=4)))


@st.composite
def _fold_cases(draw):
    """(Co, C, Ci, W, B, N), lags and a data seed on tiny shapes."""
    dims = (draw(_tiny), draw(_tiny), draw(_tiny), draw(st.integers(1, 6)),
            draw(st.integers(1, 2)), draw(_tiny))
    return dims, draw(_lag_sets(dims[3])), draw(st.integers(0, 2**32 - 1))


@st.composite
def _head_cases(draw):
    """(C, A, O, W, B, N) and a data seed on tiny shapes."""
    dims = (draw(_tiny), draw(_tiny), draw(_tiny), draw(st.integers(1, 6)),
            draw(st.integers(1, 2)), draw(_tiny))
    return dims, draw(st.integers(0, 2**32 - 1))


def _ones_channel(x):
    return ad.concat_channels([x, Variable(np.ones((1,) + x.shape[1:]), requires_grad=False)])


class TestFoldedOpProperties:
    """Finite-difference and equivalence properties, in float64 on tiny
    shapes, of the ops that fold the network's linear ends: the input
    fold, the head's composition and contraction, and conv_time_causal
    over random lag sets."""

    @settings(max_examples=40, deadline=None)
    @given(_fold_cases())
    def test_conv_time_causal_matches_finite_differences(self, case):
        (co, ci, _, w, b, n), lags, seed = case
        rng = np.random.default_rng(seed)
        up = rng.normal(size=(co, w, b, n))
        values = [rng.normal(size=(ci, w, b, n)), rng.normal(size=(co, len(lags), ci)),
                  rng.normal(size=co)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # lags past the window
            errors = _fd_errors(lambda x, k, bias: _weighted_sum(
                ad.conv_time_causal(x, k, lags, bias), up), values)
        assert max(errors) < FD_TOL, errors

    @settings(max_examples=40, deadline=None)
    @given(_fold_cases())
    def test_input_fold_matches_finite_differences(self, case):
        (co, c, ci, w, b, n), lags, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(ci, w, b, n))
        up = rng.normal(size=(co, w, b, n))
        values = [rng.normal(size=(co, len(lags), c)), rng.normal(size=(c, ci)), rng.normal(size=c)]

        def loss(k, weight, bias):
            folded = ad.fold_conv_1x1(k, weight, bias)
            return _weighted_sum(ad.conv_time_causal(_ones_channel(Variable(x)), folded, lags), up)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            errors = _fd_errors(loss, values)
        assert max(errors) < FD_TOL, errors

    @settings(max_examples=40, deadline=None)
    @given(_fold_cases())
    def test_input_fold_equals_conv_1x1_then_causal_conv(self, case):
        """Over the input with a ones channel, the folded kernel gives the
        output and every gradient of the two ops it replaces within 1e-12."""
        (co, c, ci, w, b, n), lags, seed = case
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=(ci, w, b, n)), rng.normal(size=(co, len(lags), c)),
                  rng.normal(size=(c, ci)), rng.normal(size=c), rng.normal(size=co)]
        up = rng.normal(size=(co, w, b, n))
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for folded in (True, False):
                x, k, weight, bias, conv_b = (Variable(v) for v in values)
                if folded:
                    out = ad.conv_time_causal(
                        _ones_channel(x), ad.fold_conv_1x1(k, weight, bias), lags, conv_b
                    )
                else:
                    out = ad.conv_time_causal(ad.conv_1x1(x, weight, bias), k, lags, conv_b)
                ad.backward(_weighted_sum(out, up))
                results.append([out.value] + [v.grad for v in (x, k, weight, bias, conv_b)])
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_head_cases())
    def test_head_matches_finite_differences(self, case):
        (c, a, o, w, b, n), seed = case
        rng = np.random.default_rng(seed)
        up = rng.normal(size=(b, o))
        values = [rng.normal(size=(c, w, b, n)), rng.normal(size=(a, c)), rng.normal(size=a),
                  rng.normal(size=(o, a * n * w)), rng.normal(size=o)]

        def loss(x, conv_w, conv_b, dense_w, dense_b):
            kernel, bias = ad.compose_head(conv_w, conv_b, dense_w, dense_b, n)
            return _weighted_sum(ad.dense_time_major(x, kernel, bias), up)

        errors = _fd_errors(loss, values)
        assert max(errors) < FD_TOL, errors

    @settings(max_examples=40, deadline=None)
    @given(_head_cases())
    def test_head_equals_conv_1x1_flatten_dense(self, case):
        """The composed contraction gives the forecasts and every gradient
        of conv_1x1 -> permute -> flatten -> dense within 1e-12."""
        (c, a, o, w, b, n), seed = case
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=(c, w, b, n)), rng.normal(size=(a, c)), rng.normal(size=a),
                  rng.normal(size=(o, a * n * w)), rng.normal(size=o)]
        up = rng.normal(size=(b, o))
        results = []
        for composed in (True, False):
            operands = [Variable(v) for v in values]
            x, conv_w, conv_b, dense_w, dense_b = operands
            if composed:
                kernel, bias = ad.compose_head(conv_w, conv_b, dense_w, dense_b, n)
                out = ad.dense_time_major(x, kernel, bias)
            else:
                y = ad.permute(ad.conv_1x1(x, conv_w, conv_b), BATCH_MAJOR)
                out = ad.dense(ad.flatten(y), dense_w, dense_b)
            ad.backward(_weighted_sum(out, up))
            results.append([out.value] + [v.grad for v in operands])
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12


def _rows_run(x, params):
    """A batch_halves run whose row b depends on row b of x alone."""
    return ad.relu(ad.add(ad.matmul(x, params["w"]), params["b"]))


def _halves(x_val, w_val, b_val):
    """A batch_halves op over x_val split in two, on two lanes: its output
    and the gradients of x and both params."""
    x, w, b = Variable(x_val), Variable(w_val), Variable(b_val)
    with mock.patch.object(ad, "_LANE_MIN", 0), mock.patch.object(ad, "_second_lane", lambda: True):
        out = ad.batch_halves(_rows_run, x, {"w": w, "b": b}, 1)
        ad.backward(_weighted_sum(out, np.arange(out.value.size).reshape(out.shape)))
    return [out.value, x.grad, w.grad, b.grad]


class TestBatchHalves:
    """The halves op's two lanes: they wait for each other, keep nothing
    alive, start afresh in a forked child, and a half reads only its
    copies. Its results are tested on the network in test_model.py."""

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_exception_waits_for_both_halves(self, failing):
        """The exception of either half reaches the caller only once the
        other half has finished."""
        finished = threading.Event()

        def run(x, params):
            if x.value[0, 0] == failing:
                raise RuntimeError(f"half {failing}")
            time.sleep(0.2)
            finished.set()
            return x

        x = Variable(np.array([[0.0], [1.0]]))
        with mock.patch.object(ad, "_LANE_MIN", 0), mock.patch.object(ad, "_second_lane", lambda: True):
            with pytest.raises(RuntimeError, match=f"half {failing}"):
                ad.batch_halves(run, x, {}, 1)
        assert finished.is_set()
        assert not ad._halving

    def test_a_half_never_splits_again(self):
        """A batch_halves call inside a half runs its rows whole: a half on
        the worker that waited for the worker would wait forever."""
        rows = []

        def inner(x, params):
            rows.append(x.value.shape[0])
            return _rows_run(x, params)

        def run(x, params):
            ad.batch_halves(inner, x, params, 1)
            return _rows_run(x, params)

        rng = np.random.default_rng(0)
        params = {"w": Variable(rng.normal(size=(3, 2))), "b": Variable(rng.normal(size=2))}
        with mock.patch.object(ad, "_LANE_MIN", 0), mock.patch.object(ad, "_second_lane", lambda: False):
            ad.batch_halves(run, Variable(rng.normal(size=(4, 3))), params, 1)
        assert rows == [2, 2]

    def test_the_worker_keeps_no_array_alive(self):
        """Once a halves op's forward and backward have returned, the worker
        holds nothing of them: an idle worker that kept its last task would
        keep the batch's arrays alive and grow the heap."""
        x = Variable(np.ones((4, 3)))
        params = {"w": Variable(np.ones((3, 2))), "b": Variable(np.zeros(2))}
        with mock.patch.object(ad, "_LANE_MIN", 0), mock.patch.object(ad, "_second_lane", lambda: True):
            ad.backward(_weighted_sum(ad.batch_halves(_rows_run, x, params, 1), np.ones((4, 2))))
        freed = weakref.ref(x.value)
        del x, params
        assert freed() is None

    def test_forked_child_starts_its_own_lane(self):
        """A child forked after a two-lane halves op runs the same op to
        the same bits; a child that inherited the parent's worker would
        hang, and the timeout fails the test instead."""
        rng = np.random.default_rng(0)
        values = (rng.normal(size=(64, 300)), rng.normal(size=(300, 40)), rng.normal(size=40))
        want = _halves(*values)
        assert ad._lane is not None
        with multiprocessing.get_context("fork").Pool(1) as pool:  # terminated on exit
            got = pool.apply_async(_halves, values).get(timeout=60)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_a_half_reads_only_its_copies(self):
        """A run that reads a Variable with requires_grad it was not given
        would add into that Variable's gradient from both lanes at once; the
        backward refuses it."""
        stray = Variable(np.ones(2))
        x = Variable(np.ones((4, 3)))
        params = {"w": Variable(np.ones((3, 2))), "b": Variable(np.zeros(2))}
        with mock.patch.object(ad, "_LANE_MIN", 0):
            out = ad.batch_halves(lambda x, p: ad.add(_rows_run(x, p), stray), x, params, 1)
            with pytest.raises(RuntimeError, match="not given"):
                ad.backward(_weighted_sum(out, np.ones((4, 2))))


class TestSoftmaxRows:
    def test_zero_matrix_uniform(self):
        out = ad.softmax_rows(Variable(np.zeros((2, 2))))
        np.testing.assert_allclose(out.value, np.full((2, 2), 0.5))

    def test_ln2_row(self):
        out = ad.softmax_rows(Variable([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.value, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 3))
        shifted = x.copy()
        shifted[1] += 7.5
        a = ad.softmax_rows(Variable(x)).value
        b = ad.softmax_rows(Variable(shifted)).value
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=9, max_size=9))
    def test_rows_sum_to_one(self, vals):
        x = np.array(vals).reshape(3, 3)
        out = ad.softmax_rows(Variable(x)).value
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out > 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            ad.softmax_rows(Variable([[np.inf, 0.0]]))

    def test_gradient_vs_finite_difference(self, rng):
        x_val = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        x = Variable(x_val)
        ad.backward(ad.total(ad.multiply(ad.softmax_rows(x), Variable(w, requires_grad=False))))
        fd = finite_difference(
            lambda v: float((ad.softmax_rows(Variable(v)).value * w).sum()), x_val
        )
        assert rel_err(x.grad, fd) < 1e-5


class TestDenseFlatten:
    def test_flatten_row_major(self):
        x = np.arange(288.0).reshape(1, 2, 3, 48)
        out = ad.flatten(Variable(x))
        assert out.value.shape == (1, 288)
        np.testing.assert_array_equal(out.value[0], np.arange(288.0))

    def test_identity_dense(self, rng):
        x = rng.normal(size=(4, 3))
        out = ad.dense(Variable(x), Variable(np.eye(3)), Variable(np.zeros(3)))
        np.testing.assert_allclose(out.value, x)

    def test_gradient_vs_finite_difference(self, rng):
        x_val = rng.normal(size=(3, 4))
        w_val = rng.normal(size=(2, 4))
        b_val = rng.normal(size=2)
        x, w, b = Variable(x_val), Variable(w_val), Variable(b_val)
        ad.backward(ad.total(ad.dense(x, w, b)))
        fd_w = finite_difference(
            lambda v: float(ad.dense(Variable(x_val), Variable(v), Variable(b_val)).value.sum()),
            w_val,
        )
        fd_x = finite_difference(
            lambda v: float(ad.dense(Variable(v), Variable(w_val), Variable(b_val)).value.sum()),
            x_val,
        )
        assert rel_err(w.grad, fd_w) < 1e-6
        assert rel_err(x.grad, fd_x) < 1e-6


class TestMseLoss:
    def test_perfect_prediction(self, rng):
        t = rng.normal(size=(2, 3))
        assert float(ad.mse_loss(Variable(t), t).value) == 0.0

    def test_hand_arithmetic(self):
        loss = ad.mse_loss(Variable([1.0, 1.0]), np.array([0.0, 2.0]))
        assert float(loss.value) == 1.0

    def test_gradient_formula_and_fd(self, rng):
        p_val = rng.normal(size=(2, 3))
        t = rng.normal(size=(2, 3))
        p = Variable(p_val)
        ad.backward(ad.mse_loss(p, t))
        np.testing.assert_allclose(p.grad, 2 * (p_val - t) / t.size)
        fd = finite_difference(lambda v: float(((v - t) ** 2).mean()), p_val)
        assert rel_err(p.grad, fd) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.mse_loss(Variable(np.ones(3)), np.ones(4))


def _chain(x_val):
    x = Variable(x_val)
    h = x
    for _ in range(4):
        h = ad.tanh(ad.add(ad.multiply(h, h), x))
    h = ad.sigmoid(h)
    h = ad.relu(h)
    loss = ad.mse_loss(h, np.zeros_like(x_val))
    return x, loss


def test_deep_chain_backward_deterministic(rng):
    x_val = rng.normal(size=(5,))
    grads = []
    for _ in range(3):
        x, loss = _chain(x_val)
        ad.backward(loss)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(grads[1], grads[2])


def test_backward_requires_scalar():
    with pytest.raises(ShapeMismatchError):
        ad.backward(Variable(np.ones(3)))


def test_tape_topological_order(rng):
    x = Variable(rng.normal(size=(3,)))
    y = ad.tanh(x)
    z = ad.add(y, x)
    tape = ad.GradientTape(z)
    pos = {id(n): i for i, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]


class TestNoGrad:
    def test_op_outputs_record_nothing(self, rng):
        x = Variable(rng.normal(size=(3,)))
        with ad.no_grad():
            y = ad.relu(x)
        assert (y.parents, y._backward, y.requires_grad) == ((), None, False)
        assert x.requires_grad  # leaves keep their flag
        # outside no_grad, an op whose parents all lack requires_grad
        # records nothing either
        for z in (ad.relu(y), ad.add(np.ones(3), np.ones(3))):
            assert (z.parents, z._backward, z.requires_grad) == ((), None, False)
        recorded = ad.add(y, x)
        assert recorded.parents == (y, x) and recorded.requires_grad

    def test_restored_after_exception(self):
        x = Variable(np.ones(2))
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        assert ad.relu(x).requires_grad

    def test_nests(self):
        x = Variable(np.ones(2))
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.relu(x).requires_grad
            assert not ad.relu(x).requires_grad
        assert ad.relu(x).requires_grad

    def test_backward_on_a_no_grad_loss_raises(self, rng):
        p = Variable(rng.normal(size=(3,)))
        with ad.no_grad():
            loss = ad.mse_loss(ad.relu(p), np.zeros(3))
        with pytest.raises(RuntimeError, match="requires_grad=False"):
            ad.backward(loss)
        assert p.grad is None


class TestConsumedTape:
    def test_op_outputs_are_spent_and_leaves_keep_gradients(self, rng):
        p = Variable(rng.normal(size=(3,)))
        c = Variable(rng.normal(size=(3,)), requires_grad=False)
        h = ad.relu(ad.add(p, c))
        loss = ad.mse_loss(h, np.zeros(3))
        ad.backward(loss)
        for node in (h, loss):
            assert (node.grad, node._backward, node.parents, node.requires_grad) == (
                None, None, (), False
            )
        assert p.grad is not None and c.grad is not None

    def test_second_backward_raises_and_keeps_gradients(self, rng):
        p = Variable(rng.normal(size=(3,)))
        loss = ad.mse_loss(ad.tanh(ad.add(p, p)), np.ones(3))
        ad.backward(loss)
        grad = p.grad.copy()
        with pytest.raises(RuntimeError, match="already consumed its tape"):
            ad.backward(loss)
        assert p.grad.tobytes() == grad.tobytes()

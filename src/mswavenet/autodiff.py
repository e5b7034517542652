"""Dense-tensor reverse-mode automatic differentiation on numpy arrays.

A Variable wraps a float64 ndarray plus the bookkeeping needed for
backpropagation: parent references and a closure that pushes the output
gradient into the parents. Calling ``backward`` on a scalar Variable builds
a gradient tape (topologically ordered node list) and traverses it in
reverse, accumulating gradients by summation so a Variable reused in
several places (e.g. a shared adjacency matrix) receives the sum of all
its partials.

``backward`` consumes the tape. Once an op output's backward has run, it
drops its gradient, its closure and its parents and gets
``requires_grad=False``, so each intermediate, its gradient and the
buffers its backward read are freed while the walk goes on. Leaves
(parameters and constants) keep their gradients. A spent loss cannot be
backpropagated again: a second ``backward`` raises.

Recording rule: an op's output keeps its parents and backward closure only
while recording is on and at least one parent has ``requires_grad``.
Otherwise it stores neither and has ``requires_grad=False``: nothing keeps
the buffers its backward would have read (the gate's tanh and sigmoid),
and each intermediate is freed once the next op has read it.
Recording is on by default and off inside ``with no_grad():``, so a
forward there builds no tape; the same ops run in the same order and give
the same values. ``no_grad`` nests and restores the previous state on
exit, also on an exception. Leaf Variables keep the ``requires_grad`` they
are built with, and ``backward`` rejects a loss without it. The ops whose
operands are large activations or data (``conv_time_causal``,
``conv_1x1``, ``concat_channels`` and ``dense_time_major``) compute no
gradient for an operand without ``requires_grad``, read when the op runs,
so a constant input, such as a model's data, gets no ``.grad``.

A backward reads its operands' arrays as the op found them: each op binds
the ``.value`` arrays it needs when it runs, so assigning a new array to an
operand's ``.value`` (as Adam and ``load_state_dict`` do) between a forward
and its ``backward`` changes no gradient. The arrays are not copied, so an
in-place edit would show.

Layout of the 4-D ops: ``conv_time_causal``, ``conv_time_dilated_causal``,
``conv_1x1``, ``gated_tanh_sigmoid`` and ``concat_channels`` take and give
activations as [C, W, B, N] (channel, time, batch, node), and
``dense_time_major`` maps them to [B, O]. The channel axis leads, so each
op works on the 2-D (C, W*B*N) view as plain GEMMs, and a time lag of k
steps is an offset of k*B*N columns of that view. ``conv_time_causal``
takes a tap-major kernel [C_out, L, C_in] and runs one GEMM per block of
steps over a cache-sized scratch buffer of stacked taps; no other op
copies a contiguous input. ``permute`` converts to and from other layouts,
such as the [B, C, N, W] of a model's input.

Compositions: ``compose_causal_kernel``, ``fold_conv_1x1`` and
``compose_head`` build the kernel of one op that equals a linear chain of
ops, recording the composition so gradients reach the chain's parameters.
Each takes ``values=``, the arrays it composed before from the same
parameter values, to record the same gradient path without composing.
``flatten`` and ``dense`` are kept as the reference the head's contraction
is tested against.

Batch halves: ``batch_halves`` runs a function of a batch, such as a
network's forward, as one recorded op. While a tape is recorded and the
batch is large (``_LANE_MIN``), it runs rows [:B//2] and rows [B//2:]
apart, each half with its own leaf copies of the Variables it reads, which
share their arrays. Its backward walks each half's tape and adds the two
gradients of each Variable, half 0 first. The split depends only on
shapes. The two halves run at once, one in the caller and one on the
worker of a one-worker ``concurrent.futures`` executor, when the process
may run on 2 CPUs and numpy's OpenBLAS runs one thread (``blas_threads``),
and one after the other otherwise. They share no array they write, so the
lane count changes no bit. Each process, a forked child too, starts its
own executor when a batch first splits.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import glob
import math
import os
import warnings

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_recording = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside this scope (see the module docstring)."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def recording() -> bool:
    """Whether ops record their backward: False inside ``no_grad``."""
    return _recording


def _records(parents) -> bool:  # whether an op over parents records its backward
    return _recording and any(p.requires_grad for p in parents)


class Variable:
    """A node in the computation graph.

    value is always a float64 ndarray (scalars have shape ()). grad is
    materialized lazily by backward() and has the same shape as value.
    """

    __slots__ = ("value", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        parents = tuple(parents)
        if parents and not _records(parents):
            parents, backward_fn, requires_grad = (), None, False
        self.requires_grad = bool(requires_grad)
        self.parents = parents
        self._backward = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        # the first gradient is kept as given, even when another Variable
        # holds it too; that is safe because no gradient is ever changed in
        # place: later contributions are added out of place
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
            if self.grad.shape != self.value.shape:
                self.grad = np.broadcast_to(self.grad, self.value.shape).copy()
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Variable(shape={self.value.shape}, requires_grad={self.requires_grad})"


class GradientTape:
    """Topologically ordered record of the nodes reachable from a root.

    Every node's parents precede it in ``nodes``; backward pops the list
    from its end, so it visits the nodes in exact reverse order. A tape is
    built once per backward call and is single-owner.
    """

    def __init__(self, root: Variable):
        self.nodes: list[Variable] = []
        seen = set()
        # iterative post-order DFS; deterministic given the graph
        stack = [(root, iter(root.parents))]
        seen.add(id(root))
        while stack:
            node, it = stack[-1]
            advanced = False
            for parent in it:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent.parents)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                self.nodes.append(node)


def backward(loss: Variable) -> None:
    """Populate .grad on every leaf Variable reachable from a scalar loss,
    consuming the tape: each op output is spent once its backward has run
    (see the module docstring)."""
    if loss.value.shape != ():
        raise ShapeMismatchError(
            f"backward requires a scalar loss, got shape {loss.value.shape}"
        )
    if not loss.requires_grad:
        raise RuntimeError(
            "backward: the loss has requires_grad=False, so no gradient can reach "
            "a parameter (was it built under no_grad(), or has backward already "
            "consumed its tape?)"
        )
    _walk(loss, np.ones_like(loss.value))


def _walk(root, grad, leaves=None):
    """Run the backward of every node of root's tape, seeded with grad at
    root, consuming the tape. leaves, when given, are the ids of the only
    leaves with requires_grad that the tape may reach."""
    nodes = GradientTape(root).nodes
    if leaves is not None and any(
        not node.parents and node.requires_grad and id(node) not in leaves for node in nodes
    ):
        raise RuntimeError("a batch half read a Variable with requires_grad that it was not given")
    root.grad = grad
    while nodes:
        node = nodes.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node.parents:
            # spent: free the gradient and every buffer the closure holds
            node.grad = node._backward = None
            node.parents = ()
            node.requires_grad = False


def as_variable(x) -> Variable:
    if isinstance(x, Variable):
        return x
    return Variable(x, requires_grad=False)


# ---------------------------------------------------------------------------
# broadcast support: identical shapes, a single leading batch axis, or scalar


def _broadcast_check(a: Variable, b: Variable):
    """Return (shape_out, reduce_a, reduce_b) where reduce_* maps an output
    gradient back onto that operand's shape."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return sa, None, None
    if sa == ():
        return sb, lambda g: g.sum(), None
    if sb == ():
        return sa, None, lambda g: g.sum()
    if len(sa) == len(sb) + 1 and sa[1:] == sb:
        return sa, None, lambda g: g.sum(axis=0)
    if len(sb) == len(sa) + 1 and sb[1:] == sa:
        return sb, lambda g: g.sum(axis=0), None
    raise ShapeMismatchError(f"incompatible shapes {sa} and {sb}")


def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _, red_a, red_b = _broadcast_check(a, b)
    out_val = a.value + b.value

    def backward_fn(g):
        a.accumulate_grad(red_a(g) if red_a else g)
        b.accumulate_grad(red_b(g) if red_b else g)

    return Variable(out_val, (a, b), backward_fn)


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _, red_a, red_b = _broadcast_check(a, b)
    out_val = a.value - b.value

    def backward_fn(g):
        a.accumulate_grad(red_a(g) if red_a else g)
        b.accumulate_grad(-(red_b(g) if red_b else g))

    return Variable(out_val, (a, b), backward_fn)


def multiply(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    _, red_a, red_b = _broadcast_check(a, b)
    av, bv = a.value, b.value
    out_val = av * bv

    def backward_fn(g):
        ga = g * bv
        gb = g * av
        a.accumulate_grad(red_a(ga) if red_a else ga)
        b.accumulate_grad(red_b(gb) if red_b else gb)

    return Variable(out_val, (a, b), backward_fn)


def tanh(x) -> Variable:
    x = as_variable(x)
    out_val = np.tanh(x.value)

    def backward_fn(g):
        x.accumulate_grad(g * (1.0 - out_val * out_val))

    return Variable(out_val, (x,), backward_fn)


def sigmoid(x) -> Variable:
    x = as_variable(x)
    out_val = 1.0 / (1.0 + np.exp(-x.value))

    def backward_fn(g):
        x.accumulate_grad(g * out_val * (1.0 - out_val))

    return Variable(out_val, (x,), backward_fn)


def relu(x) -> Variable:
    x = as_variable(x)
    out_val = np.maximum(x.value, 0.0)  # keeps NaN, unlike a mask select

    def backward_fn(g):
        # out > 0 equals x > 0 for every input, NaN included; the mask is
        # written as 0.0/1.0 into the array that becomes the product
        gx = np.greater(out_val, 0.0, out=np.empty_like(out_val))
        gx *= g
        x.accumulate_grad(gx)

    return Variable(out_val, (x,), backward_fn)


def total(x) -> Variable:
    """Sum of all elements, as a scalar Variable."""
    x = as_variable(x)
    shape = x.value.shape
    out_val = np.asarray(x.value.sum())

    def backward_fn(g):
        x.accumulate_grad(np.full(shape, float(g)))

    return Variable(out_val, (x,), backward_fn)


def matmul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeMismatchError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError(
            f"inner dimensions disagree: {a.value.shape} x {b.value.shape}"
        )
    av, bv = a.value, b.value
    out_val = av @ bv

    def backward_fn(g):
        a.accumulate_grad(g @ bv.T)
        b.accumulate_grad(av.T @ g)

    return Variable(out_val, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# batch halves: the two halves of a large batch, on the caller and one worker


_LANE_MIN = 1 << 19  # elements of a batch's gate activation before it runs in halves (swept in CHANGES.md)
_lane = None  # the second lane: a one-worker executor, started on first use
_lane_pid = None  # the process that started _lane; a forked child has no worker and starts its own
_halving = False  # whether batch_halves is running its halves, which never split again


@functools.cache
def _openblas_threads_api():
    """(get, set) C functions of numpy's bundled OpenBLAS, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)  # the copy numpy loaded
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads(count=None):
    """Thread count of numpy's bundled OpenBLAS, after setting it to count
    when one is given. OpenBLAS reads ``OPENBLAS_NUM_THREADS`` only when it
    loads, so a running process sets it here. Where that library is not
    found, this sets nothing and returns None."""
    api = _openblas_threads_api()
    if api is None:
        return None
    get, put = api
    if count is not None:
        put(count)
    return get()


def _second_lane() -> bool:
    """Whether the second half of a batch runs on the worker thread beside
    the first: when this process may run on at least 2 CPUs while numpy's
    BLAS runs one thread, so that the worker takes a core no BLAS thread
    spins on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2 and blas_threads() == 1


def _each_half(task):
    """task(0) and task(1), which share no array they write. With the
    second lane (``_second_lane``), task(1) runs on the worker of a
    one-worker executor, which each process starts on first use, while
    task(0) runs here (numpy releases the GIL in its GEMMs and ufuncs). This
    returns once both have finished, also when either raises; half 0's
    exception wins. Otherwise they run here in turn."""
    global _lane, _lane_pid, _halving
    _halving = True
    try:
        if not _second_lane():
            task(0)
            task(1)
            return
        if _lane_pid != os.getpid():
            # imported here, not at the top: it imports logging (about 0.6 MB
            # of RSS), which a process whose batches never split does not need
            from concurrent.futures import ThreadPoolExecutor

            _lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="autodiff-lane")
            _lane_pid = os.getpid()
        second = _lane.submit(task, 1)
        try:
            task(0)
        finally:
            error = second.exception()  # the second lane has finished
        if error is not None:
            raise error
    finally:
        _halving = False


def batch_halves(run, x, params: dict, row_size: int) -> Variable:
    """run(x, params), as one op that runs each half of the batch apart.

    run maps x [B, ...] and params, a dict of Variables, to an output
    [B, ...] whose row b depends on row b of x alone, and reads no Variable
    but those. The batch runs whole, as run(x, params), unless a tape is
    recorded, B >= 2 and B * row_size >= ``_LANE_MIN`` (row_size: the
    elements one row adds to run's largest activation). Then rows [:B//2]
    and rows [B//2:] each run with their own leaf copies of x's rows and of
    params, which share the arrays, and the output is the two halves'
    outputs concatenated. The backward walks each half's tape and adds each
    copy's gradient into its Variable, half 0 first; x gets its halves'
    gradients concatenated. The halves run at once on two lanes
    (``_each_half``), and whether they do changes no bit.
    """
    x = as_variable(x)
    B = x.value.shape[0]
    if _halving or B < 2 or B * row_size < _LANE_MIN or not _records((x, *params.values())):
        return run(x, params)
    rows = (slice(B // 2), slice(B // 2, None))
    halves = [
        (Variable(x.value[r], requires_grad=x.requires_grad),
         {name: Variable(p.value, requires_grad=p.requires_grad) for name, p in params.items()})
        for r in rows
    ]
    outs = [None, None]

    def forward(i):
        outs[i] = run(*halves[i])

    _each_half(forward)

    def backward_fn(g):
        def walk(i):
            x_half, copies = halves[i]
            _walk(outs[i], g[rows[i]], leaves={id(x_half), *map(id, copies.values())})

        _each_half(walk)
        for name, p in params.items():
            for _, copies in halves:
                if copies[name].grad is not None:
                    p.accumulate_grad(copies[name].grad)
        if halves[0][0].grad is not None:
            x.accumulate_grad(np.concatenate([x_half.grad for x_half, _ in halves]))

    return Variable(np.concatenate([out.value for out in outs]), (x, *params.values()), backward_fn)


_BLOCK_COLS = 1024  # steps x B*N columns per GEMM of conv_time_causal (swept in CHANGES.md)


def _tap_sum(out, taps, src):
    """Fill out [R, M] with the transpose of a causal convolution's shifted
    taps (s, mat): out[:, :M-s] += mat @ src[:, s:]. taps come in ascending
    s; a first tap at s = 0 is written in place, with no temporary, and
    columns no tap reaches are zero."""
    M = out.shape[1]
    if not taps or taps[0][0]:
        out[...] = 0.0
    for i, (s, mat) in enumerate(taps):
        if i == 0 and s == 0:
            np.matmul(mat, src, out=out)
        else:
            out[:, : M - s] += mat @ src[:, s:]


def conv_time_causal(x, kernel, lags, bias=None) -> Variable:
    """Causal convolution along the time axis at explicit tap lags.

    x: [C_in, W, B, N], kernel: [C_out, L, C_in] (tap-major), lags: L
    non-negative ints, bias: [C_out] or None. out[:, t] = sum_l
    kernel[:, l] applied to x[:, t - lags[l]] (+ bias), reading zeros before
    t = 0, so output length equals W and out[:, t] depends only on
    in[:, t'] with t' <= t.

    One GEMM per block of ``_BLOCK_COLS // (B*N)`` steps: the j taps that
    reach the block, in ascending lag, are stacked into a scratch buffer
    [j*C_in, steps*B*N], zero where a tap reads before t = 0, and multiplied
    by the first j*C_in columns of the kernel's (C_out, L*C_in) view. A tap
    with lag >= W is never multiplied.
    """
    x, kernel = as_variable(x), as_variable(kernel)
    if x.value.ndim != 4 or kernel.value.ndim != 3:
        raise ShapeMismatchError("expected x [C,W,B,N] and kernel [Co,L,Ci]")
    lags = list(lags)
    for lag in lags:
        if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)):
            raise ValueError(f"lag {lag!r} is not an int")
    lags = [int(lag) for lag in lags]
    if not lags or min(lags) < 0:
        raise ValueError("a causal convolution needs at least one tap and lags >= 0")
    if len(lags) != kernel.value.shape[1]:
        raise ShapeMismatchError(
            f"kernel has {kernel.value.shape[1]} taps but {len(lags)} lags were given"
        )
    if x.value.shape[0] != kernel.value.shape[2]:
        raise ShapeMismatchError(
            f"channel mismatch: x has {x.value.shape[0]}, kernel wants {kernel.value.shape[2]}"
        )
    Ci, W, B, N = x.value.shape
    Co, L, _ = kernel.value.shape
    if bias is not None:
        bias = as_variable(bias)
        if bias.value.shape != (Co,):
            raise ShapeMismatchError(f"bias shape {bias.value.shape} != ({Co},)")
    if max(lags) >= W:
        warnings.warn(
            f"receptive field: largest lag {max(lags)} >= window {W}: earliest taps read only padding",
            RuntimeWarning,
            stacklevel=2,
        )
    S = B * N
    order = sorted(range(L), key=lags.__getitem__)
    steps = [lags[l] for l in order]  # ascending
    w = kernel.value if order == list(range(L)) else kernel.value[:, order]
    x2 = x.value.reshape(Ci, -1)
    M = x2.shape[1]
    out_val = np.empty((Co, W, B, N))
    out2 = out_val.reshape(Co, -1)
    tc = max(1, _BLOCK_COLS // max(S, 1))
    scratch = np.empty(L * Ci * min(tc, W) * S)
    for t0 in range(0, W, tc):
        n = min(tc, W - t0)
        j = bisect.bisect_right(steps, t0 + n - 1)  # the taps that reach this block
        cols = scratch[: j * Ci * n * S].reshape(j * Ci, n * S)
        for i, lag in enumerate(steps[:j]):
            pad = max(lag - t0, 0) * S
            rows = cols[i * Ci : (i + 1) * Ci]
            rows[:, :pad] = 0.0
            rows[:, pad:] = x2[:, (t0 - lag) * S + pad : (t0 + n - lag) * S]
        # a view of a C-ordered kernel; with j = 0 the empty product is zero
        np.matmul(w.reshape(Co, -1)[:, : j * Ci], cols, out=out2[:, t0 * S : (t0 + n) * S])
    if bias is not None:
        out2 += bias.value[:, None]
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    shifts = [(lag * S, i) for i, lag in enumerate(steps) if lag < W]
    need_x, need_k = x.requires_grad, kernel.requires_grad
    need_b = bias is not None and bias.requires_grad

    def backward_fn(g):
        g2 = g.reshape(Co, -1)
        if need_k:
            gk = np.zeros((Co, L, Ci))
            for s, i in shifts:
                np.matmul(g2[:, s:], x2[:, : M - s].T, out=gk[:, order[i]])
            kernel.accumulate_grad(gk)
        if need_b:
            bias.accumulate_grad(g2.sum(axis=1))
        if need_x:
            gx = np.empty((Ci, W, B, N))  # C order, so its reshape is a view
            _tap_sum(gx.reshape(Ci, -1), [(s, w[:, i].T) for s, i in shifts], g2)
            x.accumulate_grad(gx)

    return Variable(out_val, parents, backward_fn)


def dilated_lags(kernel_size: int, dilation: int) -> list:
    """Lag read by each tap k of a dilated causal kernel: (K-1-k)*dilation."""
    return [(kernel_size - 1 - k) * dilation for k in range(kernel_size)]


def conv_time_dilated_causal(x, kernel, dilation: int) -> Variable:
    """Dilated causal convolution along the time axis.

    x: [C_in, W, B, N], kernel: [C_out, C_in, K]. Tap k reads lag
    (K-1-k)*dilation, as if the input were left-padded with (K-1)*dilation
    zeros, so output length equals W and out[:, t] depends only on
    in[:, t'] with t' <= t. The kernel reaches ``conv_time_causal``
    through a recorded ``permute`` to its tap-major layout.
    """
    kernel = as_variable(kernel)
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    if kernel.value.ndim != 3:
        raise ShapeMismatchError("expected kernel [Co,Ci,K]")
    lags = dilated_lags(kernel.value.shape[2], dilation)
    return conv_time_causal(x, permute(kernel, (0, 2, 1)), lags)


def compose_causal_kernel(units, lags, values=None):
    """Kernel and bias of the one causal convolution that equals S stacked
    branch -> concat -> 1x1-reduce units.

    units: S triples (reduce_w [Co, nb*Cb], reduce_b [Co], branches), where
    branches lists nb pairs (kernel [Cb, Ci, K], dilation). Branches and
    reduce are linear, so unit s is the convolution over ``lags`` whose rows
    s*Co:(s+1)*Co hold, at lag (K-1-k)*d, the sum over branches i of
    reduce_w[:, i*Cb:(i+1)*Cb] @ kernel_i[:, :, k]. Returns the kernel
    [S*Co, len(lags), Ci], tap-major as ``conv_time_causal`` takes it, and
    the bias [S*Co] (the stacked reduce biases).

    values: optionally the (kernel, bias) arrays this composition of the
    units' current parameters gave before. They become the outputs' values
    and nothing is composed; the outputs record the same parents and
    backward, which never read those values.
    """
    index = {lag: j for j, lag in enumerate(lags)}
    reduces = [as_variable(w) for w, _, _ in units]
    biases = [as_variable(b) for _, b, _ in units]
    Co = reduces[0].value.shape[0]
    reduce_vals = [r.value for r in reduces]
    plan = []  # (unit index, reduce columns, branch kernel, its value, lag indices)
    for s, (_, _, branches) in enumerate(units):
        start = 0
        for kern, d in branches:
            kern = as_variable(kern)
            Cb, Ci, K = kern.value.shape
            taps = [index[lag] for lag in dilated_lags(K, d)]
            plan.append((s, slice(start, start + Cb), kern, kern.value, taps))
            start += Cb
        if reduces[s].value.shape != (Co, start) or biases[s].value.shape != (Co,):
            raise ShapeMismatchError(
                f"unit {s}: reduce {reduces[s].value.shape} and bias {biases[s].value.shape} "
                f"do not map {start} branch channels to {Co}"
            )
    rows = [slice(s * Co, (s + 1) * Co) for s in range(len(reduces))]

    if values is None:
        kernel_val = np.zeros((len(reduces) * Co, len(index), Ci))
        for s, cols, _, kv, taps in plan:
            Cb, _, K = kv.shape
            mixed = reduce_vals[s][:, cols] @ kv.reshape(Cb, Ci * K)
            kernel_val[rows[s], taps] += mixed.reshape(Co, Ci, K).transpose(0, 2, 1)
        bias_val = np.concatenate([b.value for b in biases])
    else:
        kernel_val, bias_val = values

    def kernel_backward(g):
        g_reduce = [np.empty_like(r) for r in reduce_vals]
        for s, cols, kern, kv, taps in plan:
            Cb, _, K = kv.shape
            gs = g[rows[s], taps].transpose(0, 2, 1).reshape(Co, Ci * K)
            g_reduce[s][:, cols] = gs @ kv.reshape(Cb, Ci * K).T
            kern.accumulate_grad((reduce_vals[s][:, cols].T @ gs).reshape(Cb, Ci, K))
        for r, gr in zip(reduces, g_reduce):
            r.accumulate_grad(gr)

    def bias_backward(g):
        for b, rs in zip(biases, rows):
            b.accumulate_grad(g[rs])

    parents = tuple(reduces) + tuple(kern for _, _, kern, _, _ in plan)
    kernel = Variable(kernel_val, parents, kernel_backward)
    bias = Variable(bias_val, tuple(biases), bias_backward)
    return kernel, bias


def fold_conv_1x1(kernel, weight, bias, values=None) -> Variable:
    """Kernel [Co, L, Ci+1] of the causal convolution that equals
    ``conv_1x1`` (weight [C, Ci], bias [C]) followed by a causal
    convolution with kernel [Co, L, C], run over the input with one ones
    channel appended: tap l is kernel[:, l] @ [weight | bias]. The ones
    channel reads zero before t = 0, like the padding the unfolded kernel
    reads, so each step gets exactly the bias that reaches it.

    values: optionally the array this composition gave before, as in
    ``compose_causal_kernel``.
    """
    kernel, weight, bias = as_variable(kernel), as_variable(weight), as_variable(bias)
    Co, L, C = kernel.value.shape
    if weight.value.ndim != 2 or weight.value.shape[0] != C or bias.value.shape != (C,):
        raise ShapeMismatchError(
            f"fold: kernel {kernel.value.shape}, weight {weight.value.shape}, bias {bias.value.shape}"
        )
    Ci = weight.value.shape[1]
    k2 = kernel.value.reshape(Co * L, C)
    wb = np.concatenate([weight.value, bias.value[:, None]], axis=1)  # [C, Ci+1]
    out_val = (k2 @ wb).reshape(Co, L, Ci + 1) if values is None else values

    def backward_fn(g):
        g2 = g.reshape(Co * L, Ci + 1)
        kernel.accumulate_grad((g2 @ wb.T).reshape(Co, L, C))
        gwb = k2.T @ g2
        weight.accumulate_grad(gwb[:, :Ci])
        bias.accumulate_grad(gwb[:, Ci])

    return Variable(out_val, (kernel, weight, bias), backward_fn)


def gated_tanh_sigmoid(z) -> Variable:
    """WaveNet gate over a stacked pair: tanh(z[:C]) * sigmoid(z[C:]) for
    z [2C, ...], giving [C, ...]. The halves are contiguous blocks of z."""
    z = as_variable(z)
    if z.value.ndim < 1 or z.value.shape[0] % 2:
        raise ShapeMismatchError(f"gate input needs an even channel axis, got {z.value.shape}")
    C = z.value.shape[0] // 2
    filt = np.tanh(z.value[:C])
    gate = np.negative(z.value[C:])
    np.exp(gate, out=gate)
    gate += 1.0
    np.reciprocal(gate, out=gate)
    out_val = filt * gate

    def backward_fn(g):
        # each half written in place into a fresh gz
        gz = np.empty_like(z.value)
        g_filt, g_gate = gz[:C], gz[C:]
        np.multiply(filt, filt, out=g_filt)
        np.subtract(1.0, g_filt, out=g_filt)
        g_filt *= gate
        g_filt *= g
        np.subtract(1.0, gate, out=g_gate)
        g_gate *= out_val
        g_gate *= g
        z.accumulate_grad(gz)

    return Variable(out_val, (z,), backward_fn)


def conv_1x1(x, weight, bias) -> Variable:
    """Pure channel mixing at each (t, b, n): out = W x + b, one 2-D GEMM
    over the (C, W*B*N) view of x [C, W, B, N]."""
    x, weight, bias = as_variable(x), as_variable(weight), as_variable(bias)
    if x.value.ndim != 4 or weight.value.ndim != 2 or bias.value.ndim != 1:
        raise ShapeMismatchError("expected x [C,W,B,N], weight [Co,Ci], bias [Co]")
    if x.value.shape[0] != weight.value.shape[1] or weight.value.shape[0] != bias.value.shape[0]:
        raise ShapeMismatchError(
            f"channel mismatch: x {x.value.shape}, weight {weight.value.shape}, bias {bias.value.shape}"
        )
    w, shape = weight.value, x.value.shape
    Co = w.shape[0]
    x2 = x.value.reshape(shape[0], -1)
    out2 = w @ x2
    out2 += bias.value[:, None]
    need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad

    def backward_fn(g):
        g2 = g.reshape(Co, -1)
        if need_w:
            weight.accumulate_grad(g2 @ x2.T)
        if need_b:
            bias.accumulate_grad(g2.sum(axis=1))
        if need_x:
            x.accumulate_grad((w.T @ g2).reshape(shape))

    return Variable(out2.reshape((Co,) + shape[1:]), (x, weight, bias), backward_fn)


def concat_channels(xs) -> Variable:
    """Channel-axis concatenation of [C_i, W, B, N] inputs, in argument order."""
    xs = [as_variable(x) for x in xs]
    if not xs:
        raise ValueError("concat_channels needs at least one input")
    base = xs[0].value.shape
    for x in xs[1:]:
        s = x.value.shape
        if len(s) != 4 or s[1:] != base[1:]:
            raise ShapeMismatchError(
                f"non-channel dimensions disagree: {base} vs {s}"
            )
    widths = [x.value.shape[0] for x in xs]
    needs = [x.requires_grad for x in xs]
    out_val = np.concatenate([x.value for x in xs], axis=0)

    def backward_fn(g):
        start = 0
        for x, c, need in zip(xs, widths, needs):
            if need:
                x.accumulate_grad(g[start : start + c])
            start += c

    return Variable(out_val, tuple(xs), backward_fn)


def permute(x, axes) -> Variable:
    """x with its axes reordered as by np.transpose, copied into a
    contiguous array; the gradient is permuted back the same way."""
    x = as_variable(x)
    axes = tuple(axes)
    inverse = tuple(int(a) for a in np.argsort(axes))
    out_val = np.ascontiguousarray(x.value.transpose(axes))

    def backward_fn(g):
        x.accumulate_grad(np.ascontiguousarray(g.transpose(inverse)))

    return Variable(out_val, (x,), backward_fn)


def softmax_rows(x) -> Variable:
    """Row-wise softmax of a 2-D matrix, stabilized by row-max subtraction."""
    x = as_variable(x)
    if x.value.ndim != 2:
        raise ShapeMismatchError("softmax_rows expects a 2-D input")
    if not np.all(np.isfinite(x.value)):
        raise FloatingPointError("softmax_rows requires finite input")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_val = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g):
        # dL/dx = s * (g - sum_j g_j s_j) per row
        dot = (g * out_val).sum(axis=1, keepdims=True)
        x.accumulate_grad(out_val * (g - dot))

    return Variable(out_val, (x,), backward_fn)


def flatten(x) -> Variable:
    """[B, ...] -> [B, F], preserving row-major element order."""
    x = as_variable(x)
    shape = x.value.shape
    out_val = x.value.reshape(shape[0], math.prod(shape[1:]))

    def backward_fn(g):
        x.accumulate_grad(g.reshape(shape))

    return Variable(out_val, (x,), backward_fn)


def dense(x, weight, bias) -> Variable:
    """Affine map [B,F] -> [B,O]: out = x W^T + b."""
    x, weight, bias = as_variable(x), as_variable(weight), as_variable(bias)
    if x.value.ndim != 2 or weight.value.ndim != 2 or bias.value.ndim != 1:
        raise ShapeMismatchError("expected x [B,F], weight [O,F], bias [O]")
    if x.value.shape[1] != weight.value.shape[1] or weight.value.shape[0] != bias.value.shape[0]:
        raise ShapeMismatchError(
            f"dense shape mismatch: x {x.value.shape}, weight {weight.value.shape}"
        )
    xv, w = x.value, weight.value
    out_val = xv @ w.T + bias.value

    def backward_fn(g):
        x.accumulate_grad(g @ w)
        weight.accumulate_grad(g.T @ xv)
        bias.accumulate_grad(g.sum(axis=0))

    return Variable(out_val, (x, weight, bias), backward_fn)


def compose_head(conv_w, conv_b, dense_w, dense_b, nodes: int, values=None):
    """Kernel and bias of the one contraction (``dense_time_major``) that
    equals ``conv_1x1`` (conv_w [A, C], conv_b [A]) over [C, W, B, N], then
    permute to [B, A, N, W], ``flatten`` and ``dense`` (dense_w [O, A*N*W],
    dense_b [O]). With dense_w read as [O, A, N, W]:
    kernel[c, w, o, n] = sum_a dense_w[o, a, n, w] * conv_w[a, c] and
    bias[o] = dense_b[o] + sum_{a,n,w} dense_w[o, a, n, w] * conv_b[a].
    Returns kernel [C, W, O, N] and bias [O].

    values: optionally the (kernel, bias) arrays this composition gave
    before, as in ``compose_causal_kernel``.
    """
    conv_w, conv_b = as_variable(conv_w), as_variable(conv_b)
    dense_w, dense_b = as_variable(dense_w), as_variable(dense_b)
    A, C = conv_w.value.shape
    O, F = dense_w.value.shape
    if conv_b.value.shape != (A,) or dense_b.value.shape != (O,) or F % (A * nodes):
        raise ShapeMismatchError(
            f"head: conv {conv_w.value.shape}, {conv_b.value.shape}; "
            f"dense {dense_w.value.shape}, {dense_b.value.shape}; {nodes} nodes"
        )
    W = F // (A * nodes)
    cw, cb = conv_w.value, conv_b.value
    wd = dense_w.value.reshape(O, A, nodes, W)
    per_channel = wd.sum(axis=(2, 3))  # [O, A]: dense_w summed over (n, w)
    if values is None:
        wd_t = wd.transpose(1, 3, 0, 2).reshape(A, W * O * nodes)
        kernel_val = (cw.T @ wd_t).reshape(C, W, O, nodes)
        bias_val = dense_b.value + per_channel @ cb
    else:
        kernel_val, bias_val = values

    def kernel_backward(g):
        g2 = g.reshape(C, -1)
        conv_w.accumulate_grad(wd.transpose(1, 3, 0, 2).reshape(A, -1) @ g2.T)
        gwd = (cw @ g2).reshape(A, W, O, nodes).transpose(2, 0, 3, 1)
        dense_w.accumulate_grad(gwd.reshape(O, F))

    def bias_backward(g):
        dense_b.accumulate_grad(g)
        conv_b.accumulate_grad(per_channel.T @ g)
        dense_w.accumulate_grad(np.repeat(np.outer(g, cb), nodes * W, axis=1))

    kernel = Variable(kernel_val, (conv_w, dense_w), kernel_backward)
    bias = Variable(bias_val, (conv_b, dense_w, dense_b), bias_backward)
    return kernel, bias


def dense_time_major(x, kernel, bias) -> Variable:
    """Affine map of each window of x [C, W, B, N] to [B, O]:
    out[b, o] = sum_{c,w,n} x[c, w, b, n] * kernel[c, w, o, n] + bias[o],
    the ``dense`` of the window flattened in any order, with the weights
    laid out [C, W, O, N].

    One GEMM over the (C*W, B*N) view of x: Q = x2^T @ kernel2 is
    [(b, n), (o, n')], and out[b, o] sums its diagonal n = n'. The backward
    spreads g over that diagonal, G [B*N, O*N], and runs two GEMMs:
    x2 @ G for the kernel and kernel2 @ G^T for x.
    """
    x, kernel, bias = as_variable(x), as_variable(kernel), as_variable(bias)
    if x.value.ndim != 4 or kernel.value.ndim != 4:
        raise ShapeMismatchError("expected x [C,W,B,N] and kernel [C,W,O,N]")
    C, W, B, N = x.value.shape
    O = kernel.value.shape[2]
    if kernel.value.shape != (C, W, O, N) or bias.value.shape != (O,):
        raise ShapeMismatchError(
            f"x {x.value.shape} needs kernel ({C}, {W}, O, {N}) and bias (O,), "
            f"got {kernel.value.shape} and {bias.value.shape}"
        )
    x2 = x.value.reshape(C * W, B * N)
    k2 = kernel.value.reshape(C * W, O * N)
    q = (x2.T @ k2).reshape(B, N, O, N)
    out_val = q.diagonal(axis1=1, axis2=3).sum(axis=2) + bias.value
    need_x, need_k, need_b = x.requires_grad, kernel.requires_grad, bias.requires_grad

    def backward_fn(g):
        spread = np.zeros((B, N, O, N))
        diag = np.arange(N)
        spread[:, diag, :, diag] = g
        spread = spread.reshape(B * N, O * N)
        if need_k:
            kernel.accumulate_grad((x2 @ spread).reshape(C, W, O, N))
        if need_b:
            bias.accumulate_grad(g.sum(axis=0))
        if need_x:
            x.accumulate_grad((k2 @ spread.T).reshape(C, W, B, N))

    return Variable(out_val, (x, kernel, bias), backward_fn)


def mse_loss(pred, target) -> Variable:
    """Mean of squared differences; target is a constant array."""
    pred = as_variable(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ShapeMismatchError(
            f"pred shape {pred.value.shape} != target shape {target.shape}"
        )
    diff = pred.value - target
    n = diff.size
    out_val = np.asarray((diff * diff).sum() / n)

    def backward_fn(g):
        pred.accumulate_grad((2.0 / n) * diff * float(g))

    return Variable(out_val, (pred,), backward_fn)

"""The [B, C, N, W] implementations of the 4-D ops that the time-major
[C, W, B, N] ops replaced, kept as a numpy reference.

``conv_time_causal`` gathers the lagged copies of its input into one
im2col buffer and mixes channels with batched GEMMs; ``conv_1x1`` and
``_node_mix`` run batched GEMMs over the batch axis. ``forward`` is
``Network.forward`` op for op as it ran in that layout, on the same
parameters, so forecasts and gradients of the two can be compared.
"""

import warnings

import numpy as np

from mswavenet import autodiff as ad
from mswavenet.autodiff import ShapeMismatchError, Variable, as_variable
from mswavenet.model import BATCH_MAJOR


def from_time_major(a):
    """[C, W, B, N] -> [B, C, N, W]."""
    return np.ascontiguousarray(np.asarray(a).transpose(BATCH_MAJOR))


def _mix_channels(w, x):
    """w [O, I] applied at every (b, n, t) of x [B, I, N, W] -> [B, O, N, W]."""
    b, i, n, t = x.shape
    return (w @ x.reshape(b, i, n * t)).reshape(b, -1, n, t)


def _mix_channels_grad_w(g, x):
    """d/dw of _mix_channels: [B,O,N,W], [B,I,N,W] -> [O, I]."""
    b, o, n, t = g.shape
    gr = g.reshape(b, o, n * t)
    xr = x.reshape(b, x.shape[1], n * t)
    return np.matmul(gr, xr.transpose(0, 2, 1)).sum(axis=0)


def conv_time_causal(x, kernel, lags, bias=None) -> Variable:
    """Causal convolution along the trailing time axis of x [B, C_in, N, W],
    kernel [C_out, L, C_in] (tap-major)."""
    x, kernel = as_variable(x), as_variable(kernel)
    lags = list(lags)
    B, Ci, N, W = x.value.shape
    Co, L, _ = kernel.value.shape
    if bias is not None:
        bias = as_variable(bias)
    if max(lags) >= W:
        warnings.warn("receptive field: earliest taps read only padding", RuntimeWarning)
    cols = np.empty((B, L * Ci, N, W))
    keeps = [max(W - lag, 0) for lag in lags]
    for l, keep in enumerate(keeps):
        tap = cols[:, l * Ci : (l + 1) * Ci]
        tap[..., : W - keep] = 0.0
        tap[..., W - keep :] = x.value[..., :keep]
    w2 = kernel.value.reshape(Co, L * Ci)
    out_val = _mix_channels(w2, cols)
    if bias is not None:
        out_val += bias.value[None, :, None, None]

    def backward_fn(g):
        gw2 = _mix_channels_grad_w(g, cols)
        kernel.accumulate_grad(gw2.reshape(Co, L, Ci))
        if bias is not None:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        gx = np.zeros_like(x.value)
        for l, keep in enumerate(keeps):
            if keep:
                gx[..., :keep] += _mix_channels(kernel.value[:, l].T, g)[..., W - keep :]
        x.accumulate_grad(gx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return Variable(out_val, parents, backward_fn)


def conv_1x1(x, weight, bias) -> Variable:
    """Channel mixing at each (b, n, t) of x [B, C, N, W]."""
    x, weight, bias = as_variable(x), as_variable(weight), as_variable(bias)
    out_val = _mix_channels(weight.value, x.value)
    out_val += bias.value[None, :, None, None]

    def backward_fn(g):
        weight.accumulate_grad(_mix_channels_grad_w(g, x.value))
        bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        x.accumulate_grad(_mix_channels(weight.value.T, g))

    return Variable(out_val, (x, weight, bias), backward_fn)


def _node_mix(x: Variable, adj: Variable) -> Variable:
    # adj [N,N] acts on the node axis; matmul broadcasts over (B, C)
    out_val = np.matmul(adj.value, x.value)

    def backward_fn(g):
        adj.accumulate_grad(np.matmul(g, x.value.transpose(0, 1, 3, 2)).sum(axis=(0, 1)))
        x.accumulate_grad(np.matmul(adj.value.T, g))

    return Variable(out_val, (x, adj), backward_fn)


def gcn_forward(x, adj, theta, bias) -> Variable:
    if adj.values.value.shape != (x.value.shape[2],) * 2:
        raise ShapeMismatchError("adjacency does not match the node axis")
    return conv_1x1(_node_mix(x, adj.values), theta, bias)


def gated_tanh_sigmoid(z) -> Variable:
    """tanh(z[:, :C]) * sigmoid(z[:, C:]) for z [B, 2C, N, W]."""
    C = z.value.shape[1] // 2
    filt = np.tanh(z.value[:, :C])
    gate = 1.0 / (1.0 + np.exp(-z.value[:, C:]))
    out_val = filt * gate

    def backward_fn(g):
        gz = np.empty_like(z.value)
        gz[:, :C] = g * gate * (1.0 - filt * filt)
        gz[:, C:] = g * filt * gate * (1.0 - gate)
        z.accumulate_grad(gz)

    return Variable(out_val, (z,), backward_fn)


def forward(net, x) -> Variable:
    """net.forward(x) for x [B, D, N, W], every activation [B, C, N, W]."""
    x = as_variable(x)
    adj = net.adjacency()
    h = conv_1x1(x, net.input_w, net.input_b)
    skip_sum = None
    last = len(net.blocks) - 1
    for i, block in enumerate(net.blocks):
        units = [block.tcn_a, block.tcn_b]
        lags = units[0].lags
        kernel, bias = ad.compose_causal_kernel([u.composition() for u in units], lags)
        gated = gated_tanh_sigmoid(conv_time_causal(h, kernel, lags, bias))
        tap = conv_1x1(gated, block.skip_w, block.skip_b)
        if i < last:
            h = ad.add(gcn_forward(gated, adj, block.gcn_theta, block.gcn_bias), h)
        skip_sum = tap if skip_sum is None else ad.add(skip_sum, tap)
    out = conv_1x1(ad.relu(skip_sum), net.head1_w, net.head1_b)
    out = conv_1x1(ad.relu(out), net.head2_w, net.head2_b)
    return ad.dense(ad.flatten(out), net.dense_w, net.dense_b)

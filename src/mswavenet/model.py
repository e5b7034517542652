"""Spatio-temporal wavenet: gated multi-branch TCN + graph convolution blocks.

Data flows [B, D, N, W] -> input 1x1 conv -> a stack of spatio-temporal
blocks (gated TCN, then graph convolution, wrapped in a residual add, with
a per-block 1x1 skip tap) -> ReLU/1x1-conv head -> flatten -> dense, giving
one forecast per target node. The single-scale variant uses one dilated
branch per block; the multi-scale variant concatenates several kernel
size / dilation branches before a 1x1 reduction. Both gate units of a
block run as one causal convolution composed from their parameters. Each
block keeps the kernel it last composed and composes again only when one
of those parameters has changed bit for bit, so repeated forecasts on
unchanged parameters skip composing (see ``_ComposedCache``).

Layout: the network takes [B, D, N, W] and permutes it once to the
[C, W, B, N] (channel, time, batch, node) layout of the autodiff 4-D ops.
Every activation between the input and the head stays in that layout, so
each convolution is a set of plain 2-D GEMMs on views (see ``autodiff``).
The head's output is permuted back to [B, C, N, W] before ``flatten``, so
the dense weights, every parameter shape and every checkpoint keep their
meaning, and ``temporal_stack`` returns [B, C, N, W].
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import graph
from .autodiff import Variable
from .config import ConfigError, int_at_least

SINGLE_SCALE = "single_scale"
MULTI_SCALE = "multi_scale"

# np.transpose axes: [B, C, N, W] -> [C, W, B, N], and back
TIME_MAJOR = (1, 3, 0, 2)
BATCH_MAJOR = (2, 0, 3, 1)


# the paper's branch layout of block i, as (kernel_size, dilation) pairs
_PAPER_BRANCHES = {
    MULTI_SCALE: lambda i: [(2, 1), (3, 2), (6, 3)],
    SINGLE_SCALE: lambda i: [(2, 2**i)],
}
_POSITIVE_INTS = (
    "num_blocks", "residual_channels", "skip_channels", "embedding_width",
    "window", "horizon", "num_nodes", "num_features",
)


def default_branch_specs(variant: str, num_blocks: int):
    """Per-block (kernel_size, dilation) branch lists."""
    return ModelConfig(variant=variant, num_blocks=num_blocks).branch_specs


def _positive_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(
        int_at_least(v, 1) for v in value
    )


@dataclass
class ModelConfig:
    variant: str = MULTI_SCALE
    num_blocks: int = 4
    residual_channels: int = 32
    skip_channels: int = 64
    head_channels: tuple = (128, 64)
    branch_specs: list = None  # list (per block) of [(K, d), ...]; None: the paper's
    embedding_width: int = 10
    window: int = 48
    horizon: int = 6
    num_nodes: int = 5
    num_features: int = 4
    target_nodes: list = field(default_factory=lambda: [0, 3, 4])

    def __post_init__(self):
        self.validate()
        if self.branch_specs is None:
            self.branch_specs = [_PAPER_BRANCHES[self.variant](i) for i in range(self.num_blocks)]
        self.head_channels = tuple(self.head_channels)
        self.branch_specs = [[tuple(b) for b in block] for block in self.branch_specs]
        self.target_nodes = list(self.target_nodes)

    def validate(self):
        """Check every field's type and range; raise ConfigError naming the
        first bad field. A branch_specs of None stands for the paper's."""
        if self.variant not in tuple(_PAPER_BRANCHES):
            raise ConfigError(f"unknown variant {self.variant!r}", "variant")
        for name in _POSITIVE_INTS:
            value = getattr(self, name)
            if not int_at_least(value, 1):
                raise ConfigError(f"must be a positive int, got {value!r}", name)
        if not _positive_pair(self.head_channels):
            raise ConfigError(f"must be two positive ints, got {self.head_channels!r}",
                              "head_channels")
        targets = self.target_nodes
        if not (
            isinstance(targets, (list, tuple)) and targets
            and all(int_at_least(t, 0) and t < self.num_nodes for t in targets)
            and len(set(targets)) == len(targets)
        ):
            raise ConfigError(
                f"must be distinct node indices in [0, {self.num_nodes}), at least one, "
                f"got {targets!r}",
                "target_nodes",
            )
        specs = self.branch_specs
        if specs is None:
            return
        if not isinstance(specs, (list, tuple)) or len(specs) != self.num_blocks:
            raise ConfigError(f"must list one branch set per block, got {specs!r}", "branch_specs")
        for branches in specs:
            if not isinstance(branches, (list, tuple)) or not all(map(_positive_pair, branches)):
                raise ConfigError(
                    f"every branch must be a (kernel_size, dilation) pair of positive ints, "
                    f"got {branches!r}",
                    "branch_specs",
                )
            if self.variant == SINGLE_SCALE and len(branches) != 1:
                raise ConfigError("single_scale blocks use exactly one branch", "branch_specs")
            if self.variant == MULTI_SCALE and len(branches) < 2:
                raise ConfigError("multi_scale blocks need >= 2 branches", "branch_specs")

    def to_dict(self) -> dict:
        """Every field, with tuples as lists: the form JSON reads back."""
        return {f.name: _as_lists(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise ConfigError(
                f"model config keys: missing {sorted(names - set(d))}, "
                f"unexpected {sorted(set(d) - names)}"
            )
        return cls(**d)


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, (list, tuple)) else value


def receptive_field(config: ModelConfig) -> int:
    """Farthest-back input hour (inclusive) that can reach the last output step."""
    rf = 1
    for branches in config.branch_specs:
        rf += max((k - 1) * d for k, d in branches)
    return rf


def _uniform_fan_in(rng, shape, fan_in):
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _union_lags(branches):
    """Sorted tap lags (K-1-k)*d read by a set of (K, d) causal branches."""
    return tuple(sorted({lag for k, d in branches for lag in ad.dilated_lags(k, d)}))


def _tcn_forward(x: Variable, units, cache=None) -> Variable:
    """Outputs of TCN subunits that share one branch layout, stacked on the
    channel axis, computed as one causal convolution over the union of their
    tap lags. Its kernel is composed from the branch and reduce parameters,
    so gradients reach those parameters unchanged. With a ``_ComposedCache``
    of these units, the kernel is composed again only when one of their
    parameter values changed; otherwise the stored one is reused."""
    lags = units[0].lags
    stored = None if cache is None else cache.lookup(units)
    kernel, bias = ad.compose_causal_kernel(
        [u.composition() for u in units], lags, values=stored
    )
    if cache is not None and stored is None:
        cache.store(units, kernel.value, bias.value)
    return ad.conv_time_causal(x, kernel, lags, bias)


def _param_values(units):
    return [p.value for u in units for _, p in u.parameters()]


class _ComposedCache:
    """The kernel and bias that a set of TCN subunits was last composed
    into, with a copy of the bytes of the parameter values they came from.

    Adam and ``load_state_dict`` replace a parameter's ``.value``, and an
    in-place edit keeps its identity, so ``lookup`` checks both: an array
    that is not the one last stored is a miss without comparing, and the
    one last stored must still hold its copied bytes. Every buffer is
    allocated here and refreshed in place, so the cache keeps no array a
    forward allocates. Refreshing the kernel in place changes the value of
    a kernel Variable returned earlier; that is safe because nothing reads
    it after its forward (``conv_time_causal`` copies the kernel only when
    recording, for its backward, and the composed kernel's backward reads
    only the parameter arrays of its forward).
    """

    def __init__(self, units):
        self.copies = [bytearray(v.nbytes) for v in _param_values(units)]
        self.ids = [None] * len(self.copies)
        c_out = units[0].reduce_w.value.shape[0]
        c_in = units[0].kernels[0][1].value.shape[1]
        self.kernel = np.empty((len(units) * c_out, len(units[0].lags), c_in))
        self.bias = np.empty(len(units) * c_out)

    def lookup(self, units):
        """(kernel, bias) if every parameter value of units is bit for bit
        the one they were composed from, else None."""
        for value, seen, copy in zip(_param_values(units), self.ids, self.copies):
            # an id reused by a new array only costs a comparison
            if id(value) != seen or value.tobytes() != copy:
                return None
        return self.kernel, self.bias

    def store(self, units, kernel, bias):
        """Keep kernel and bias, composed from the units' current parameters."""
        np.copyto(self.kernel, kernel)
        np.copyto(self.bias, bias)
        for i, value in enumerate(_param_values(units)):
            self.ids[i] = id(value)
            self.copies[i][:] = value.tobytes()


class _TcnSubunit:
    """Parallel dilated causal branches, concatenated and 1x1-reduced.

    The chain is linear, so it runs as a single causal convolution (see
    ``_tcn_forward``); the parameters stay those of the branches and reduce.
    """

    def __init__(self, prefix, channels, branches, rng):
        self.prefix = prefix
        self.branches = list(branches)
        self.lags = _union_lags(self.branches)
        self.kernels = []
        for i, (k, _d) in enumerate(self.branches):
            kern = Variable(_uniform_fan_in(rng, (channels, channels, k), channels * k))
            self.kernels.append((f"{prefix}.branch{i}.kernel", kern))
        concat_width = channels * len(self.branches)
        self.reduce_w = Variable(_uniform_fan_in(rng, (channels, concat_width), concat_width))
        self.reduce_b = Variable(np.zeros(channels))

    def composition(self):
        """(reduce weight, reduce bias, [(branch kernel, dilation), ...])."""
        kernels = [(kern, d) for (_name, kern), (_k, d) in zip(self.kernels, self.branches)]
        return self.reduce_w, self.reduce_b, kernels

    def forward(self, x: Variable) -> Variable:
        return _tcn_forward(x, [self])

    def parameters(self):
        return self.kernels + [
            (f"{self.prefix}.reduce.weight", self.reduce_w),
            (f"{self.prefix}.reduce.bias", self.reduce_b),
        ]


class _StBlock:
    """Gated TCN followed by a graph convolution, with residual and skip tap."""

    def __init__(self, prefix, config: ModelConfig, branches, rng):
        c = config.residual_channels
        self.prefix = prefix
        self.tcn_a = _TcnSubunit(f"{prefix}.tcn_a", c, branches, rng)
        self.tcn_b = _TcnSubunit(f"{prefix}.tcn_b", c, branches, rng)
        self.skip_w = Variable(_uniform_fan_in(rng, (config.skip_channels, c), c))
        self.skip_b = Variable(np.zeros(config.skip_channels))
        self.gcn_theta = Variable(_uniform_fan_in(rng, (c, c), c))
        self.gcn_bias = Variable(np.zeros(c))
        self.gate_cache = _ComposedCache([self.tcn_a, self.tcn_b])

    def forward(self, x: Variable, adj: graph.AdjacencyMatrix, gcn: bool = True):
        """(block output, skip tap); the block output is None when gcn is
        False, for a final block whose output nothing reads."""
        gated = ad.gated_tanh_sigmoid(
            _tcn_forward(x, [self.tcn_a, self.tcn_b], self.gate_cache)
        )
        skip_tap = ad.conv_1x1(gated, self.skip_w, self.skip_b)
        if not gcn:
            return None, skip_tap
        block_out = ad.add(graph.gcn_forward(gated, adj, self.gcn_theta, self.gcn_bias), x)
        return block_out, skip_tap

    def parameters(self):
        return (
            self.tcn_a.parameters()
            + self.tcn_b.parameters()
            + [
                (f"{self.prefix}.skip.weight", self.skip_w),
                (f"{self.prefix}.skip.bias", self.skip_b),
                (f"{self.prefix}.gcn.theta", self.gcn_theta),
                (f"{self.prefix}.gcn.bias", self.gcn_bias),
            ]
        )


class Network:
    """The assembled forecaster; all blocks share one adjacency."""

    def __init__(self, config: ModelConfig, seed: int = 0, node_order=None):
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        c = config.residual_channels
        if node_order is None:
            node_order = [f"node{i}" for i in range(config.num_nodes)]
        self.node_order = list(node_order)
        if len(self.node_order) != config.num_nodes:
            raise ConfigError(
                f"{len(self.node_order)} names for {config.num_nodes} nodes", "node_order"
            )
        self.input_w = Variable(
            _uniform_fan_in(rng, (c, config.num_features), config.num_features)
        )
        self.input_b = Variable(np.zeros(c))
        self.embeddings = graph.NodeEmbeddings(config.num_nodes, config.embedding_width, rng)
        self.blocks = [
            _StBlock(f"block{i}", config, config.branch_specs[i], rng)
            for i in range(config.num_blocks)
        ]
        h1, h2 = config.head_channels
        self.head1_w = Variable(_uniform_fan_in(rng, (h1, config.skip_channels), config.skip_channels))
        self.head1_b = Variable(np.zeros(h1))
        self.head2_w = Variable(_uniform_fan_in(rng, (h2, h1), h1))
        self.head2_b = Variable(np.zeros(h2))
        flat = h2 * config.num_nodes * config.window
        n_out = len(config.target_nodes)
        self.dense_w = Variable(_uniform_fan_in(rng, (n_out, flat), flat))
        self.dense_b = Variable(np.zeros(n_out))

    def adjacency(self) -> graph.AdjacencyMatrix:
        return graph.adjacency_softmax(self.embeddings, self.node_order)

    def forward(self, x) -> Variable:
        """x: [B, D, N, W] -> forecasts [B, n_target_nodes]."""
        x = ad.as_variable(x)
        cfg = self.config
        expect = (cfg.num_features, cfg.num_nodes, cfg.window)
        if x.value.ndim != 4 or x.value.shape[1:] != expect:
            raise ad.ShapeMismatchError(
                f"input shape {x.value.shape} does not match config [B,{expect[0]},{expect[1]},{expect[2]}]"
            )
        # one name through the head, so that without a tape each activation
        # is freed once the next op has read it
        out = self._run_blocks(x, final_gcn=False)[1]
        out = ad.relu(out)
        out = ad.conv_1x1(out, self.head1_w, self.head1_b)
        out = ad.relu(out)
        out = ad.conv_1x1(out, self.head2_w, self.head2_b)
        out = ad.permute(out, BATCH_MAJOR)
        return ad.dense(ad.flatten(out), self.dense_w, self.dense_b)

    def temporal_stack(self, x) -> Variable:
        """Block-stack output [B, C, N, W] before the head; used by the
        causality / receptive-field probes (the flatten+dense head mixes
        every timestep by construction)."""
        h, _ = self._run_blocks(ad.as_variable(x), final_gcn=True)
        return ad.permute(h, BATCH_MAJOR)

    def _run_blocks(self, x: Variable, final_gcn: bool):
        """(stack output, summed skip taps), both [C, W, B, N], for input x
        [B, D, N, W]. Only the skip taps feed the head, so the final block's
        graph convolution runs only when final_gcn asks for the stack
        output; otherwise that output is None."""
        adj = self.adjacency()
        h = ad.conv_1x1(ad.permute(x, TIME_MAJOR), self.input_w, self.input_b)
        skip_sum = None
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            h, tap = block.forward(h, adj, gcn=final_gcn or i < last)
            skip_sum = tap if skip_sum is None else ad.add(skip_sum, tap)
        return h, skip_sum

    def parameters(self):
        """Ordered (name, Variable) pairs covering every learnable tensor."""
        params = [
            ("input_proj.weight", self.input_w),
            ("input_proj.bias", self.input_b),
        ]
        params += self.embeddings.parameters()
        for block in self.blocks:
            params += block.parameters()
        params += [
            ("head.conv1.weight", self.head1_w),
            ("head.conv1.bias", self.head1_b),
            ("head.conv2.weight", self.head2_w),
            ("head.conv2.bias", self.head2_b),
            ("head.dense.weight", self.dense_w),
            ("head.dense.bias", self.dense_b),
        ]
        names = [n for n, _ in params]
        assert len(names) == len(set(names)), "duplicate parameter name"
        return params

    def structurally_dead(self):
        """Parameter names that can never receive gradient: only the skip
        taps feed the head, so the final block's graph convolution output
        is discarded and its weights stay at their initial values."""
        last = f"block{self.config.num_blocks - 1}"
        return {f"{last}.gcn.theta", f"{last}.gcn.bias"}

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {name: p.value.copy() for name, p in self.parameters()}

    def load_state_dict(self, state: dict):
        """Copy state's arrays into the parameters. Raises naming a parameter:
        KeyError if missing or unknown, ShapeMismatchError or ValueError if
        misshapen or non-finite."""
        params = dict(self.parameters())
        for name in sorted(params.keys() | state.keys()):
            if name not in state:
                raise KeyError(f"{name}: missing")
            if name not in params:
                raise KeyError(f"{name}: not a parameter of the model")
            value = np.array(state[name], dtype=np.float64)
            shape = params[name].value.shape
            if value.shape != shape:
                raise ad.ShapeMismatchError(f"{name}: shape {value.shape}, the model's is {shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name}: non-finite value")
            params[name].value = value

"""Spatio-temporal wavenet: gated multi-branch TCN + graph convolution blocks.

Data flows [B, D, N, W] -> input 1x1 conv -> a stack of spatio-temporal
blocks (gated TCN, then graph convolution, wrapped in a residual add, with
a per-block 1x1 skip tap) -> ReLU/1x1-conv head -> flatten -> dense, giving
one forecast per target node. The single-scale variant uses one dilated
branch per block; the multi-scale variant concatenates several kernel
size / dilation branches before a 1x1 reduction.

Every linear chain runs as one operation, composed from its parameters:
- both gate units of a block run as one causal convolution;
- block 0's convolution also absorbs the input 1x1 conv: it reads the
  input with one ones channel appended, whose zero padding gives each step
  exactly the bias that reaches it. The input conv still runs, for block
  0's residual;
- the head's second 1x1 conv, flatten and dense run as one contraction
  (``autodiff.dense_time_major``).
A ``_ComposedCache`` owns each composition: it keeps the arrays it last
composed, by reference, and composes new ones only when a parameter they
came from has changed bit for bit, so repeated forecasts on unchanged
parameters compose nothing. ``forward`` composes them all before its first
activation. Parameters, their names and shapes, and checkpoints are those
of the unfolded network.

Layout: the network takes [B, D, N, W] and permutes it once to the
[C, W, B, N] (channel, time, batch, node) layout of the autodiff 4-D ops.
Every activation from there to the forecast stays in that layout, so each
convolution is a set of plain 2-D GEMMs on views (see ``autodiff``), and
``temporal_stack`` permutes its output back to [B, C, N, W].
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


class _ComposedCache:
    """Arrays composed from a list of parameters, kept by reference with
    the id and bytes of each parameter value they came from.

    Adam and ``load_state_dict`` replace a parameter's ``.value``, and an
    in-place edit keeps its identity, so ``compose`` checks both. A miss
    composes new arrays and keeps references to them. Nothing writes into
    an array once composed, so a backward recorded on an earlier
    composition still reads that composition's arrays.
    """

    def __init__(self):
        self.values = None  # arrays of the last composition
        self.seen = None  # (id, bytes) of each parameter value they came from

    def compose(self, parameters, composition):
        """The Variables composition(values) gives, which record their
        composition so that gradients reach the parameters. values are the
        stored arrays when every parameter value is bit for bit one they
        were composed from (a hit); otherwise None, and the result is
        stored. A hit under ``no_grad`` returns the stored arrays as
        constants without calling composition."""
        # the bytes catch an in-place edit, and a new array at a freed one's id
        seen = [(id(p.value), p.value.tobytes()) for p in parameters]
        hit = seen == self.seen
        if hit and not ad.recording():  # nothing to record: the arrays are the result
            return tuple(ad.as_variable(v) for v in self.values)
        outputs = composition(self.values if hit else None)
        if not hit:
            self.values, self.seen = tuple(v.value for v in outputs), seen
        return outputs


class _TcnSubunit:
    """Parallel dilated causal branches, concatenated and 1x1-reduced.

    The chain is linear, so it runs as a single causal convolution (see
    ``_ComposedCache``); the parameters stay those of the branches and reduce.
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
        self.lags = self.tcn_a.lags
        self.gate = _ComposedCache()

    def gate_parameters(self):
        return [p for unit in (self.tcn_a, self.tcn_b) for _, p in unit.parameters()]

    def compose_gate(self, values=None):
        """(kernel, bias) of the one causal convolution both TCN subunits
        run as, stacked tcn_a over tcn_b."""
        units = [self.tcn_a.composition(), self.tcn_b.composition()]
        return ad.compose_causal_kernel(units, self.lags, values=values)

    def forward(self, x: Variable, residual, adj: graph.AdjacencyMatrix, gate, gcn: bool = True):
        """(block output, skip tap) of the gate convolution gate = (kernel,
        bias) over x; the block output adds residual to the graph
        convolution, and is None when gcn is False, for a final block whose
        output nothing reads."""
        kernel, bias = gate
        gated = ad.gated_tanh_sigmoid(ad.conv_time_causal(x, kernel, self.lags, bias))
        skip_tap = ad.conv_1x1(gated, self.skip_w, self.skip_b)
        if not gcn:
            return None, skip_tap
        block_out = ad.add(graph.gcn_forward(gated, adj, self.gcn_theta, self.gcn_bias), residual)
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
        if not int_at_least(seed, 0):
            raise ConfigError(f"must be a non-negative int, got {seed!r}", "seed")
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
        self.head = _ComposedCache()

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
        # every cached array outlives the forward, so it is composed before
        # the first activation is allocated
        gates = self._compose_gates()
        head_kernel, head_bias = self.head.compose(
            [self.head2_w, self.head2_b, self.dense_w, self.dense_b], self._compose_head
        )
        # one name through the head, so that without a tape each activation
        # is freed once the next op has read it
        out = self._run_blocks(x, gates, final_gcn=False)[1]
        out = ad.relu(out)
        out = ad.conv_1x1(out, self.head1_w, self.head1_b)
        out = ad.relu(out)
        return ad.dense_time_major(out, head_kernel, head_bias)

    def temporal_stack(self, x) -> Variable:
        """Block-stack output [B, C, N, W] before the head; used by the
        causality / receptive-field probes (the dense head mixes every
        timestep by construction)."""
        h, _ = self._run_blocks(ad.as_variable(x), self._compose_gates(), final_gcn=True)
        return ad.permute(h, BATCH_MAJOR)

    def _compose_gates(self):
        """(kernel, bias) of each block's gate convolution, each reused from
        the block's cache while its parameters are unchanged. Block 0's
        kernel has input_proj folded in (see ``_compose_folded_gate``)."""
        block0 = self.blocks[0]
        gates = [block0.gate.compose(
            block0.gate_parameters() + [self.input_w, self.input_b], self._compose_folded_gate
        )[:2]]
        for block in self.blocks[1:]:
            gates.append(block.gate.compose(block.gate_parameters(), block.compose_gate))
        return gates

    def _compose_folded_gate(self, values):
        """Block 0's gate convolution over the permuted input with one ones
        channel appended: (kernel [2C, L, D+1], bias), then the unfolded
        gate kernel [2C, L, C] it is composed from. Both are linear, so
        this equals input_proj followed by the gate convolution."""
        folded, bias, kernel = values or (None, None, None)
        kernel, bias = self.blocks[0].compose_gate(values and (kernel, bias))
        folded = ad.fold_conv_1x1(kernel, self.input_w, self.input_b, values=folded)
        return folded, bias, kernel

    def _compose_head(self, values):
        """(kernel, bias) of head.conv2 -> flatten -> dense as one
        ``dense_time_major`` contraction."""
        return ad.compose_head(
            self.head2_w, self.head2_b, self.dense_w, self.dense_b, self.config.num_nodes,
            values=values,
        )

    def _run_blocks(self, x: Variable, gates, final_gcn: bool):
        """(stack output, summed skip taps), both [C, W, B, N], for input x
        [B, D, N, W] and each block's gate (kernel, bias). Only the skip
        taps feed the head, so the final block's graph convolution runs only
        when final_gcn asks for the stack output; otherwise that output is
        None. input_proj runs only for block 0's residual: its gate
        convolution reads the input itself, with a ones channel."""
        adj = self.adjacency()
        x = ad.permute(x, TIME_MAJOR)
        last = len(self.blocks) - 1
        h = ad.conv_1x1(x, self.input_w, self.input_b) if final_gcn or last else None
        ones = Variable(np.ones((1,) + x.shape[1:]), requires_grad=False)
        x = ad.concat_channels([x, ones])
        skip_sum = None
        for i, (block, gate) in enumerate(zip(self.blocks, gates)):
            h, tap = block.forward(x if i == 0 else h, h, adj, gate, gcn=final_gcn or i < last)
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

"""Spatio-temporal wavenet: gated multi-branch TCN + graph convolution blocks.

Data flows [B, D, N, W] -> input 1x1 conv -> a stack of spatio-temporal
blocks (gated TCN, then graph convolution, wrapped in a residual add, with
a per-block 1x1 skip tap) -> ReLU/1x1-conv head -> flatten -> dense, giving
one forecast per target node. The single-scale variant uses one dilated
branch per block; the multi-scale variant concatenates several kernel
size / dilation branches before a 1x1 reduction.

``Network.params`` is the one store of parameters: it maps each checkpoint
name (``input_proj.weight``, ``adjacency.e1``, ``block0.tcn_a.branch2.kernel``,
``block0.gcn.theta``, ``head.dense.bias``, ...) to its Variable, in the
order the values are drawn. ``parameters``, ``state_dict``, the adjacency,
the compositions and the activations all read it by name.

Every linear chain runs as one operation, composed from its parameters:
- both gate units of a block run as one causal convolution;
- block 0's convolution also absorbs the input 1x1 conv: it reads the
  input with one ones channel appended, whose zero padding gives each step
  exactly the bias that reaches it. The input conv still runs, for block
  0's residual;
- the head's second 1x1 conv, flatten and dense run as one contraction
  (``autodiff.dense_time_major``).
A ``_ComposedCache`` owns each composition: it holds the names of the
parameters it composes from and keeps the arrays it last composed, by
reference. It composes new ones only when a parameter they came from has
changed bit for bit, so repeated forecasts on unchanged parameters compose
nothing. ``forward`` composes them all before its first activation.
Parameters, their names and shapes, and checkpoints are those of the
unfolded network.

Layout: the network takes [B, D, N, W] and permutes it once to the
[C, W, B, N] (channel, time, batch, node) layout of the autodiff 4-D ops.
Every activation from there to the forecast stays in that layout, so each
convolution is a set of plain 2-D GEMMs on views (see ``autodiff``), and
``temporal_stack`` permutes its output back to [B, C, N, W].
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

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
# the paper's branch_specs are built with one entry per block when a config
# is checked, so a config from outside the program cannot ask for 10**12
MAX_BLOCKS = 1024


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
        if self.num_blocks > MAX_BLOCKS:
            raise ConfigError(f"must be at most {MAX_BLOCKS}, got {self.num_blocks}", "num_blocks")
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
    """Arrays composed from the parameters named ``names``, kept by
    reference with the id and bytes of each parameter value they came from.

    Adam and ``load_state_dict`` replace a parameter's ``.value``, an
    in-place edit keeps its identity, and a Variable may be replaced in the
    store, so ``compose`` looks each name up and checks both. A miss
    composes new arrays and keeps references to them. Nothing writes into
    an array once composed, so a backward recorded on an earlier
    composition still reads that composition's arrays.
    """

    def __init__(self, names):
        self.names = tuple(names)  # the parameters it composes from
        self.values = None  # arrays of the last composition
        self.seen = None  # (id, bytes) of each parameter value they came from

    def compose(self, params, composition):
        """The Variables composition(values) gives, which record their
        composition so that gradients reach the parameters. values are the
        stored arrays when the value of every parameter in params named in
        ``names`` is bit for bit one they were composed from (a hit);
        otherwise None, and the result is stored. A hit under ``no_grad``
        returns the stored arrays as constants without calling
        composition."""
        # the bytes catch an in-place edit, and a new array at a freed one's id
        values = [params[name].value for name in self.names]
        seen = [(id(v), v.tobytes()) for v in values]
        hit = seen == self.seen
        if hit and not ad.recording():  # nothing to record: the arrays are the result
            return tuple(ad.as_variable(v) for v in self.values)
        outputs = composition(self.values if hit else None)
        if not hit:
            self.values, self.seen = tuple(v.value for v in outputs), seen
        return outputs


class Network:
    """The assembled forecaster; all blocks share one adjacency.

    ``params`` maps each checkpoint name to its Variable, in the order
    ``parameters()`` lists them, which is the order they were drawn in.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, node_order=None):
        if not int_at_least(seed, 0):
            raise ConfigError(f"must be a non-negative int, got {seed!r}", "seed")
        self.config = config
        self.seed = seed
        if node_order is None:
            node_order = [f"node{i}" for i in range(config.num_nodes)]
        self.node_order = list(node_order)
        if len(self.node_order) != config.num_nodes:
            raise ConfigError(
                f"{len(self.node_order)} names for {config.num_nodes} nodes", "node_order"
            )
        rng = np.random.default_rng(seed)
        c, n = config.residual_channels, config.num_nodes
        p = self.params = {}

        def linear(name, shape, fan_in, weight="weight"):  # drawn, then a zero bias
            p[f"{name}.{weight}"] = Variable(_uniform_fan_in(rng, shape, fan_in))
            p[f"{name}.bias"] = Variable(np.zeros(shape[0]))

        linear("input_proj", (c, config.num_features), config.num_features)
        for e in ("e1", "e2"):
            p[f"adjacency.{e}"] = Variable(rng.uniform(-0.5, 0.5, size=(n, config.embedding_width)))
        for i, branches in enumerate(config.branch_specs):
            for unit in ("tcn_a", "tcn_b"):  # parallel branches, concatenated and 1x1-reduced
                for j, (k, _d) in enumerate(branches):
                    p[f"block{i}.{unit}.branch{j}.kernel"] = Variable(
                        _uniform_fan_in(rng, (c, c, k), c * k)
                    )
                linear(f"block{i}.{unit}.reduce", (c, c * len(branches)), c * len(branches))
            linear(f"block{i}.skip", (config.skip_channels, c), c)
            linear(f"block{i}.gcn", (c, c), c, weight="theta")
        h1, h2 = config.head_channels
        linear("head.conv1", (h1, config.skip_channels), config.skip_channels)
        linear("head.conv2", (h2, h1), h1)
        flat = h2 * n * config.window
        linear("head.dense", (len(config.target_nodes), flat), flat)

        self.lags = [_union_lags(branches) for branches in config.branch_specs]
        # each block's TCN units, by name: (reduce weight, reduce bias,
        # [(branch kernel, dilation), ...]) for tcn_a, then tcn_b
        self._units = [
            [(f"block{i}.{unit}.reduce.weight", f"block{i}.{unit}.reduce.bias",
              [(f"block{i}.{unit}.branch{j}.kernel", d) for j, (_k, d) in enumerate(branches)])
             for unit in ("tcn_a", "tcn_b")]
            for i, branches in enumerate(config.branch_specs)
        ]
        # block 0's gate convolution has input_proj folded in
        self.gates = [
            _ComposedCache([name for w, b, kernels in units for name in (w, b, *(k for k, _d in kernels))]
                           + (["input_proj.weight", "input_proj.bias"] if i == 0 else []))
            for i, units in enumerate(self._units)
        ]
        self.head = _ComposedCache(
            ["head.conv2.weight", "head.conv2.bias", "head.dense.weight", "head.dense.bias"]
        )

    def adjacency(self) -> graph.AdjacencyMatrix:
        return graph.adjacency_softmax(
            self.params["adjacency.e1"], self.params["adjacency.e2"], self.node_order
        )

    def forward(self, x) -> Variable:
        """x: [B, D, N, W] -> forecasts [B, n_target_nodes]. While a tape is
        recorded, a large batch runs in two halves (``ad.batch_halves``)."""
        x = ad.as_variable(x)
        cfg = self.config
        expect = (cfg.num_features, cfg.num_nodes, cfg.window)
        if x.value.ndim != 4 or x.value.shape[1:] != expect:
            raise ad.ShapeMismatchError(
                f"input shape {x.value.shape} does not match config [B,{expect[0]},{expect[1]},{expect[2]}]"
            )
        gate_row = 2 * cfg.residual_channels * cfg.window * cfg.num_nodes
        return ad.batch_halves(self._forecast, x, self._weights(), gate_row)

    def temporal_stack(self, x) -> Variable:
        """Block-stack output [B, C, N, W] before the head; used by the
        causality / receptive-field probes (the dense head mixes every
        timestep by construction)."""
        h, _ = self._run_blocks(ad.as_variable(x), self._weights(), final_gcn=True)
        return ad.permute(h, BATCH_MAJOR)

    def _weights(self):
        """The Variables the activations read, by name: the adjacency,
        input_proj, each block's gate convolution (block{i}.gate.kernel and
        .bias, see ``_compose_gate``), skip and gcn, head.conv1 and the
        head's contraction (head.kernel and head.bias). Each composition is
        reused from its cache while its parameters are unchanged. Every
        cached array outlives the forward, so each composition runs here,
        before the first activation is allocated."""
        p = self.params
        gates = [cache.compose(p, partial(self._compose_gate, i))[:2]
                 for i, cache in enumerate(self.gates)]
        head = self.head.compose(p, lambda values: ad.compose_head(
            *(p[name] for name in self.head.names), self.config.num_nodes, values=values
        ))
        w = {"adjacency": self.adjacency().values,
             "input_proj.weight": p["input_proj.weight"], "input_proj.bias": p["input_proj.bias"]}
        for i, gate in enumerate(gates):
            b = f"block{i}"
            w[f"{b}.gate.kernel"], w[f"{b}.gate.bias"] = gate
            for name in (f"{b}.skip.weight", f"{b}.skip.bias", f"{b}.gcn.theta", f"{b}.gcn.bias"):
                w[name] = p[name]
        w.update({"head.conv1.weight": p["head.conv1.weight"], "head.conv1.bias": p["head.conv1.bias"],
                  "head.kernel": head[0], "head.bias": head[1]})
        return w

    def _compose_gate(self, i, values):
        """Block i's gate convolution: its TCN units, tcn_a over tcn_b, as
        one causal convolution, (kernel [2C, L, C], bias). values: the
        arrays these parameter values were composed into before.

        Block 0's reads the permuted input with one ones channel appended:
        (kernel [2C, L, D+1], bias, the unfolded kernel [2C, L, C] it is
        composed from). Both are linear, so this equals input_proj followed
        by the gate convolution."""
        p = self.params
        units = [(p[w], p[b], [(p[k], d) for k, d in kernels]) for w, b, kernels in self._units[i]]
        if i:
            return ad.compose_causal_kernel(units, self.lags[i], values=values)
        folded, bias, kernel = values or (None, None, None)
        kernel, bias = ad.compose_causal_kernel(units, self.lags[0], values=values and (kernel, bias))
        folded = ad.fold_conv_1x1(kernel, p["input_proj.weight"], p["input_proj.bias"], values=folded)
        return folded, bias, kernel

    def _forecast(self, x: Variable, w) -> Variable:
        """Forecasts [B, n_target_nodes] of input x [B, D, N, W] with the
        Variables w (see ``_weights``)."""
        # one name through the head, so that without a tape each activation
        # is freed once the next op has read it
        out = self._run_blocks(x, w, final_gcn=False)[1]
        out = ad.relu(out)
        out = ad.conv_1x1(out, w["head.conv1.weight"], w["head.conv1.bias"])
        out = ad.relu(out)
        return ad.dense_time_major(out, w["head.kernel"], w["head.bias"])

    def _run_blocks(self, x: Variable, w, final_gcn: bool):
        """(stack output, summed skip taps), both [C, W, B, N], for input x
        [B, D, N, W] and the Variables w (see ``_weights``). Each block runs
        its gate convolution, the gate, its skip tap, then the graph
        convolution plus the residual. Only the skip taps feed the head, so
        the final block's graph convolution runs only when final_gcn asks
        for the stack output; otherwise that output is None. input_proj runs
        only for block 0's residual: its gate convolution reads the input
        itself, with a ones channel."""
        adj = graph.AdjacencyMatrix(w["adjacency"], self.node_order)
        x = ad.permute(x, TIME_MAJOR)
        last = len(self.lags) - 1
        h = ad.conv_1x1(x, w["input_proj.weight"], w["input_proj.bias"]) if final_gcn or last else None
        ones = Variable(np.ones((1,) + x.shape[1:]), requires_grad=False)
        x = ad.concat_channels([x, ones])
        skip_sum = None
        for i, lags in enumerate(self.lags):
            b = f"block{i}"
            gated = ad.gated_tanh_sigmoid(
                ad.conv_time_causal(x if i == 0 else h, w[f"{b}.gate.kernel"], lags, w[f"{b}.gate.bias"])
            )
            tap = ad.conv_1x1(gated, w[f"{b}.skip.weight"], w[f"{b}.skip.bias"])
            if final_gcn or i < last:
                h = ad.add(graph.gcn_forward(gated, adj, w[f"{b}.gcn.theta"], w[f"{b}.gcn.bias"]), h)
            else:
                h = None
            del gated  # without a tape, freed before the next activation
            skip_sum = tap if skip_sum is None else ad.add(skip_sum, tap)
        return h, skip_sum

    def parameters(self):
        """Ordered (name, Variable) pairs covering every learnable tensor."""
        return list(self.params.items())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {name: p.value.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: dict):
        """Copy state's arrays into the parameters. Raises naming a parameter:
        KeyError if missing or unknown, ShapeMismatchError or ValueError if
        misshapen or non-finite."""
        params = self.params
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

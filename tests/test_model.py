import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mswavenet import autodiff as ad
from mswavenet import graph
from mswavenet.autodiff import ShapeMismatchError, Variable
from mswavenet.model import (
    BATCH_MAJOR,
    MULTI_SCALE,
    SINGLE_SCALE,
    TIME_MAJOR,
    ConfigError,
    ModelConfig,
    Network,
    _TcnSubunit,
    receptive_field,
)
from mswavenet.training import AdamOptimizer

import batch_major


def small_config(**over):
    base = dict(
        variant=MULTI_SCALE,
        num_blocks=2,
        residual_channels=4,
        skip_channels=6,
        head_channels=(8, 5),
        embedding_width=3,
        window=16,
        horizon=2,
        num_nodes=3,
        num_features=4,
        target_nodes=[0, 2],
    )
    base.update(over)
    return ModelConfig(**base)


class TestModelConfig:
    def test_default_multi_scale_branches(self):
        cfg = ModelConfig()
        assert cfg.branch_specs == [[(2, 1), (3, 2), (6, 3)]] * 4

    def test_default_single_scale_branches(self):
        cfg = ModelConfig(variant=SINGLE_SCALE)
        assert cfg.branch_specs == [[(2, 1)], [(2, 2)], [(2, 4)], [(2, 8)]]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="triple_scale", num_blocks=4)

    def test_one_config_error_type(self):
        from mswavenet import config

        assert ConfigError is config.ConfigError

    def test_single_scale_rejects_multiple_branches(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant=SINGLE_SCALE, branch_specs=[[(2, 1), (3, 1)]] * 4)

    def test_round_trip_dict(self):
        cfg = small_config()
        cfg2 = ModelConfig.from_dict(cfg.to_dict())
        assert cfg2 == cfg


    def test_from_dict_needs_every_field(self):
        d = small_config().to_dict()
        del d["window"]
        with pytest.raises(ConfigError, match=r"missing \['window'\]"):
            ModelConfig.from_dict(d)

    def test_to_dict_matches_explicit_mapping(self):
        cfg = small_config()
        assert cfg.to_dict() == {
            "variant": cfg.variant,
            "num_blocks": cfg.num_blocks,
            "residual_channels": cfg.residual_channels,
            "skip_channels": cfg.skip_channels,
            "head_channels": list(cfg.head_channels),
            "branch_specs": [[list(b) for b in block] for block in cfg.branch_specs],
            "embedding_width": cfg.embedding_width,
            "window": cfg.window,
            "horizon": cfg.horizon,
            "num_nodes": cfg.num_nodes,
            "num_features": cfg.num_features,
            "target_nodes": list(cfg.target_nodes),
        }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("variant", "zzz"),
            ("variant", ["multi_scale"]),
            ("num_blocks", 0),
            ("residual_channels", "x"),
            ("skip_channels", 2.0),
            ("embedding_width", True),
            ("window", 0),
            ("horizon", True),
            ("num_nodes", None),
            ("num_features", -1),
            ("head_channels", ("a",)),
            ("head_channels", (4, 0)),
            ("head_channels", (1, 2, 3)),
            ("target_nodes", []),
            ("target_nodes", [5]),
            ("target_nodes", [0, 0]),
            ("target_nodes", [-1]),
            ("target_nodes", [True]),
            ("target_nodes", "02"),
            ("branch_specs", [[(2, 1), (3, 2)]]),
            ("branch_specs", [[(2, 1), (3, 2)], [(0, 1), (3, 2)]]),
            ("branch_specs", [[(2, 1), (3, 2)], [(2,), (3, 2)]]),
            ("branch_specs", [[(2, 1), (3, 2)], [(2, 1)]]),
            ("branch_specs", [[(2, 1), (3, 2)], "ab"]),
        ],
    )
    def test_every_field_checked(self, field, value):
        with pytest.raises(ConfigError) as exc:
            small_config(**{field: value})
        assert exc.value.key == field
        assert str(exc.value).startswith(f"{field}: ")

    def test_sequences_stored_in_one_form(self):
        cfg = small_config(head_channels=[8, 5], target_nodes=(0, 2),
                           branch_specs=[[[2, 1], [3, 2]], ([2, 1], (6, 3))])
        assert cfg.head_channels == (8, 5)
        assert cfg.target_nodes == [0, 2]
        assert cfg.branch_specs == [[(2, 1), (3, 2)], [(2, 1), (6, 3)]]


class TestReceptiveField:
    def test_single_branch_formula(self):
        # one block, K=3 d=2: rf = 1 + (3-1)*2 = 5
        cfg = small_config(variant=SINGLE_SCALE, num_blocks=1, branch_specs=[[(3, 2)]])
        assert receptive_field(cfg) == 5

    def test_single_scale_doubling(self):
        # K=2, dilations 1,2,4,8 -> rf = 1 + 1 + 2 + 4 + 8 = 16
        cfg = ModelConfig(variant=SINGLE_SCALE, num_blocks=4)
        assert receptive_field(cfg) == 16

    def test_paper_multi_scale_default(self):
        # widest branch per block is (6,3): rf = 1 + 4 * 15 = 61
        assert receptive_field(ModelConfig()) == 61

    def test_empirical_probe_matches(self):
        cfg = small_config(variant=SINGLE_SCALE, num_blocks=3,
                           branch_specs=[[(2, 1)], [(2, 2)], [(2, 4)]], window=16)
        rf = receptive_field(cfg)  # 8
        net = Network(cfg, seed=3)
        x = np.random.default_rng(0).normal(size=(1, 4, 3, 16))
        base = net.temporal_stack(x).value[0, :, :, -1]
        # perturbing the oldest in-field step changes the last output step
        x_in = x.copy()
        x_in[0, :, :, 16 - rf] += 1.0
        assert not np.allclose(net.temporal_stack(x_in).value[0, :, :, -1], base)
        # perturbing the step just outside the field does not
        x_out = x.copy()
        x_out[0, :, :, 16 - rf - 1] += 1.0
        np.testing.assert_array_equal(net.temporal_stack(x_out).value[0, :, :, -1], base)


def _tcn(unit, x):
    """One TCN subunit's output: its composed kernel as a causal convolution."""
    kernel, bias = ad.compose_causal_kernel([unit.composition()], unit.lags)
    return ad.conv_time_causal(x, kernel, unit.lags, bias)


class TestTcnSubunit:
    def test_identity_passthrough(self):
        # single K=1 branch with identity kernel and identity reduce
        unit = _TcnSubunit("t", 2, [(1, 1)], np.random.default_rng(0))
        unit.kernels[0] = (unit.kernels[0][0], Variable(np.eye(2).reshape(2, 2, 1)))
        unit.reduce_w = Variable(np.eye(2))
        unit.reduce_b = Variable(np.zeros(2))
        x = np.random.default_rng(1).normal(size=(2, 5, 2, 3))  # [C, W, B, N]
        np.testing.assert_allclose(_tcn(unit, Variable(x)).value, x)

    def test_output_width_preserved(self, rng):
        unit = _TcnSubunit("t", 3, [(2, 1), (3, 2), (6, 3)], np.random.default_rng(0))
        out = _tcn(unit, Variable(rng.normal(size=(3, 20, 2, 4))))
        assert out.value.shape == (3, 20, 2, 4)

    def test_branch_count_in_parameters(self):
        unit = _TcnSubunit("t", 3, [(2, 1), (3, 2), (6, 3)], np.random.default_rng(0))
        names = [n for n, _ in unit.parameters()]
        assert names == [
            "t.branch0.kernel", "t.branch1.kernel", "t.branch2.kernel",
            "t.reduce.weight", "t.reduce.bias",
        ]
        # reduce maps concat (3 branches x 3 channels) back to 3 channels
        assert dict(unit.parameters())["t.reduce.weight"].value.shape == (3, 9)


class TestNetworkForward:
    def test_paper_shapes(self):
        net = Network(ModelConfig(), seed=0)
        out = net.forward(np.zeros((2, 4, 5, 48)))
        assert out.value.shape == (2, 3)

    def test_small_shapes(self, rng):
        net = Network(small_config(), seed=0)
        out = net.forward(rng.normal(size=(7, 4, 3, 16)))
        assert out.value.shape == (7, 2)

    @pytest.mark.parametrize("tape", [True, False], ids=["tape", "no-grad"])
    def test_empty_batch(self, tape):
        """Zero windows give zero forecasts, not a ZeroDivisionError in the
        causal convolution or an ambiguous reshape in flatten."""
        net = Network(ModelConfig(), seed=0)
        with contextlib.nullcontext() if tape else ad.no_grad():
            out = net.forward(np.zeros((0, 4, 5, 48)))
        assert out.value.shape == (0, 3)

    def test_shape_validation(self):
        net = Network(small_config(), seed=0)
        with pytest.raises(ShapeMismatchError):
            net.forward(np.zeros((2, 4, 3, 17)))

    def test_zero_input_zero_bias_outputs_zero(self):
        net = Network(small_config(), seed=0)
        out = net.forward(np.zeros((3, 4, 3, 16)))
        np.testing.assert_array_equal(out.value, np.zeros((3, 2)))

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    def test_no_grad_forward_bitwise_equal(self, rng, variant):
        """Paper size, B=2: the same ops in the same order give the same bits."""
        net = Network(ModelConfig(variant=variant), seed=0)
        x = rng.normal(size=(2, 4, 5, 48))
        recorded = net.forward(x)
        with ad.no_grad():
            out = net.forward(x)
        assert recorded.requires_grad and recorded.parents
        assert out.value.tobytes() == recorded.value.tobytes()
        assert (out.parents, out._backward, out.requires_grad) == ((), None, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_gives_non_finite_forecast(self, rng, bad):
        net = Network(small_config(), seed=0)
        x = rng.normal(size=(2, 4, 3, 16))
        x[0, 2, 1, -1] = bad
        with np.errstate(invalid="ignore"):  # inf - inf inside the GEMMs
            out = net.forward(x).value
            everywhere = net.forward(np.full((1, 4, 3, 16), bad)).value
        assert not np.isfinite(out[0]).any()
        assert np.isfinite(out[1]).all()
        assert not np.isfinite(everywhere).any()

    def test_bitwise_determinism(self, rng):
        x = rng.normal(size=(2, 4, 3, 16))
        a = Network(small_config(), seed=11).forward(x).value
        b = Network(small_config(), seed=11).forward(x).value
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("order", [["a", "b"], ["a", "b", "c", "d"], []])
    def test_one_name_per_node(self, order):
        with pytest.raises(ConfigError, match=f"^node_order: {len(order)} names for 3 nodes"):
            Network(small_config(), node_order=order)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_seed_checked(self, seed):
        with pytest.raises(ConfigError, match=f"^seed: must be a non-negative int, got {seed!r}$"):
            Network(small_config(), seed=seed)

    def test_seed_changes_init(self):
        a = Network(small_config(), seed=0).state_dict()
        b = Network(small_config(), seed=1).state_dict()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_gated_activation_bounded(self, rng):
        """tanh * sigmoid output of each block's gate lies in (-1, 1)."""
        net = Network(small_config(), seed=0)
        x = Variable(10.0 * rng.normal(size=(4, 16, 1, 3)), requires_grad=False)  # [D, W, B, N]
        adj = net.adjacency()
        h = ad.conv_1x1(x, net.input_w, net.input_b)
        block = net.blocks[0]
        gated = ad.multiply(
            ad.tanh(_tcn(block.tcn_a, h)), ad.sigmoid(_tcn(block.tcn_b, h))
        )
        assert np.all(np.abs(gated.value) < 1.0)

    def test_pure_residual_with_zero_gcn(self, rng):
        """Zeroing a block's GCN weights makes it the identity on h."""
        net = Network(small_config(num_blocks=1), seed=0)
        block = net.blocks[0]
        block.gcn_theta.value[:] = 0.0
        block.gcn_bias.value[:] = 0.0
        h = Variable(rng.normal(size=(4, 16, 2, 3)), requires_grad=False)  # [C, W, B, N]
        out, _tap = block.forward(h, h, net.adjacency(), block.compose_gate())
        np.testing.assert_array_equal(out.value, h.value)


class TestGradientCoverage:
    def test_all_live_parameters_receive_gradient(self, rng):
        net = Network(small_config(), seed=0)
        x = rng.normal(size=(3, 4, 3, 16))
        loss = ad.mse_loss(net.forward(x), rng.normal(size=(3, 2)))
        ad.backward(loss)
        # only the skip taps feed the head, so the final block's graph
        # convolution output is discarded and its weights get no gradient
        dead = {"block1.gcn.theta", "block1.gcn.bias"}
        for name, p in net.parameters():
            if name in dead:
                assert p.grad is None or not np.any(p.grad), name
            else:
                assert p.grad is not None and np.any(p.grad != 0), name

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    def test_a_constant_input_gets_no_gradient(self, variant, rng):
        """Data takes no gradient: none is computed for it, and every
        parameter gradient is bitwise that of an input that takes one."""
        net = _perturbed(variant, rng)
        x = rng.normal(size=(2, 4, 5, 48))
        target = rng.normal(size=(2, 3))

        def gradients(x_in):
            net.zero_grad()
            ad.backward(ad.mse_loss(net.forward(x_in), target))
            return {n: None if p.grad is None else p.grad.tobytes() for n, p in net.parameters()}

        constant, variable = Variable(x, requires_grad=False), Variable(x)
        assert gradients(constant) == gradients(variable)
        assert constant.grad is None and np.any(variable.grad != 0)

    def test_dead_set_names_final_block_gcn(self, rng):
        net = Network(small_config(num_blocks=3), seed=0)
        ad.backward(ad.mse_loss(net.forward(rng.normal(size=(2, 4, 3, 16))), np.zeros((2, 2))))
        dead = {name for name, p in net.parameters() if p.grad is None}
        assert dead == {"block2.gcn.theta", "block2.gcn.bias"}


class TestVariants:
    def test_multi_vs_single_parameter_structure(self):
        multi = Network(small_config(), seed=0)
        single = Network(
            small_config(variant=SINGLE_SCALE, branch_specs=[[(2, 1)], [(2, 2)]]),
            seed=0,
        )
        multi_names = {n for n, _ in multi.parameters()}
        single_names = {n for n, _ in single.parameters()}
        assert "block0.tcn_a.branch2.kernel" in multi_names
        assert "block0.tcn_a.branch1.kernel" not in single_names
        assert "block0.tcn_a.branch0.kernel" in single_names

    def test_window_shorter_than_field_warns(self):
        cfg = small_config(window=4)  # rf 31 > window 4
        net = Network(cfg, seed=0)
        with pytest.warns(RuntimeWarning):
            net.forward(np.zeros((1, 4, 3, 4)))


class TestStateDict:
    def test_round_trip(self, rng):
        a = Network(small_config(), seed=0)
        b = Network(small_config(), seed=5)
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(2, 4, 3, 16))
        np.testing.assert_array_equal(a.forward(x).value, b.forward(x).value)

    def test_name_mismatch(self):
        net = Network(small_config(), seed=0)
        state = net.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch(self):
        net = Network(small_config(), seed=0)
        state = net.state_dict()
        state["input_proj.bias"] = np.zeros(99)
        with pytest.raises(ShapeMismatchError):
            net.load_state_dict(state)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value(self, value):
        net = Network(small_config(), seed=0)
        state = net.state_dict()
        state["head.dense.weight"][0, 0] = value
        with pytest.raises(ValueError, match="^head.dense.weight: non-finite value"):
            net.load_state_dict(state)


def _reference_tcn(unit, x):
    """A TCN subunit as separate ops: branches -> concat -> 1x1 reduce."""
    outs = [
        ad.conv_time_dilated_causal(x, kern, d)
        for (_name, kern), (_k, d) in zip(unit.kernels, unit.branches)
    ]
    cat = outs[0] if len(outs) == 1 else ad.concat_channels(outs)
    return ad.conv_1x1(cat, unit.reduce_w, unit.reduce_b)


def _reference_forward(net, x):
    """Network.forward built op by op, without the composed gate-pair conv."""
    adj = net.adjacency()
    x = ad.permute(Variable(x, requires_grad=False), TIME_MAJOR)
    h = ad.conv_1x1(x, net.input_w, net.input_b)
    skip_sum = None
    for block in net.blocks:
        gated = ad.multiply(
            ad.tanh(_reference_tcn(block.tcn_a, h)), ad.sigmoid(_reference_tcn(block.tcn_b, h))
        )
        tap = ad.conv_1x1(gated, block.skip_w, block.skip_b)
        h = ad.add(graph.gcn_forward(gated, adj, block.gcn_theta, block.gcn_bias), h)
        skip_sum = tap if skip_sum is None else ad.add(skip_sum, tap)
    out = ad.conv_1x1(ad.relu(skip_sum), net.head1_w, net.head1_b)
    out = ad.conv_1x1(ad.relu(out), net.head2_w, net.head2_b)
    return ad.dense(ad.flatten(ad.permute(out, BATCH_MAJOR)), net.dense_w, net.dense_b)


CRITERION_5_SIZE = dict(
    residual_channels=16, skip_channels=32, head_channels=(32, 16), window=16,
    horizon=1, num_nodes=5, target_nodes=[0, 1, 2, 3, 4],
)


class TestComposedGateEquivalence:
    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    @pytest.mark.parametrize("size", [CRITERION_5_SIZE, {}], ids=["criterion5", "paper"])
    def test_forward_and_gradients_match_separate_ops(self, variant, size, rng):
        net = Network(ModelConfig(variant=variant, **size), seed=3)
        for _, p in net.parameters():  # biases start at zero; make every one count
            p.value = p.value + 0.1 * rng.normal(size=p.value.shape)
        cfg = net.config
        x = rng.normal(size=(3, cfg.num_features, cfg.num_nodes, cfg.window))
        target = rng.normal(size=(3, len(cfg.target_nodes)))
        results = []
        for forward in (net.forward, lambda v: _reference_forward(net, v)):
            net.zero_grad()
            pred = forward(x)
            ad.backward(ad.mse_loss(pred, target))
            results.append((pred.value, {n: p.grad for n, p in net.parameters()}))
        (fused, fused_grads), (ref, ref_grads) = results
        assert np.abs(fused - ref).max() <= 1e-12
        for name, g in ref_grads.items():
            if g is None:
                assert fused_grads[name] is None, name
            else:
                assert np.abs(fused_grads[name] - g).max() <= 1e-12, name


class TestTimeMajorEquivalence:
    """Network.forward against the [B, C, N, W] ops it replaced
    (tests/batch_major.py), on the same parameters."""

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    @pytest.mark.parametrize(
        "size, batch", [(CRITERION_5_SIZE, 64), ({}, 2)], ids=["criterion5", "paper"]
    )
    def test_forecasts_and_gradients_match_batch_major(self, variant, size, batch, rng):
        net = Network(ModelConfig(variant=variant, **size), seed=3)
        for _, p in net.parameters():  # biases start at zero; make every one count
            p.value = p.value + 0.1 * rng.normal(size=p.value.shape)
        cfg = net.config
        x_val = rng.normal(size=(batch, cfg.num_features, cfg.num_nodes, cfg.window))
        target = rng.normal(size=(batch, len(cfg.target_nodes)))
        results = []
        for forward in (net.forward, lambda v: batch_major.forward(net, v)):
            net.zero_grad()
            x = Variable(x_val)  # the input gradient flows through permute
            pred = forward(x)
            ad.backward(ad.mse_loss(pred, target))
            results.append((pred.value, x.grad, {n: p.grad for n, p in net.parameters()}))
        (pred, x_grad, grads), (ref, ref_x_grad, ref_grads) = results
        assert np.abs(pred - ref).max() <= 1e-12
        assert x_grad.shape == x_val.shape and np.any(x_grad != 0)
        assert np.abs(x_grad - ref_x_grad).max() <= 1e-12
        for name, g in ref_grads.items():
            if g is None:
                assert grads[name] is None, name
            else:
                assert np.abs(grads[name] - g).max() <= 1e-12, name

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    def test_batch_rows_equal_batch_1_forwards(self, variant, rng):
        """B=64 and B=1 split the causal convolutions into different blocks
        of steps; each row's forecast must not depend on the split."""
        net = _perturbed(variant, rng)
        x = rng.normal(size=(64, 4, 5, 48))
        with ad.no_grad():
            batched = net.forward(x).value
            rows = np.concatenate([net.forward(x[i : i + 1]).value for i in range(len(x))])
        assert np.abs(batched - rows).max() <= 1e-12

    def test_temporal_stack_is_batch_major(self, rng):
        net = Network(small_config(residual_channels=5), seed=0)
        x = rng.normal(size=(2, 4, 3, 16))
        assert net.temporal_stack(x).value.shape == (2, 5, 3, 16)


def _perturbed(variant, rng):
    """A paper-size network whose every parameter, biases included, counts."""
    net = Network(ModelConfig(variant=variant), seed=5)
    for _, p in net.parameters():
        p.value = p.value + 0.1 * rng.normal(size=p.value.shape)
    return net


def _fresh_copy(net):
    """A new Network holding net's parameters: its first forward composes
    every gate kernel, so it is the reference for net's stored kernels."""
    ref = Network(net.config, seed=net.seed)
    ref.load_state_dict(net.state_dict())
    return ref


def _stored(net):
    """Every array the network's caches hold: each block's gate kernels
    (block 0's with input_proj folded in) and the head's."""
    return [v for cache in [b.gate for b in net.blocks] + [net.head] for v in cache.values]


def _forecast(net, x, record):
    if record:
        return net.forward(x).value
    with ad.no_grad():
        return net.forward(x).value


def _adam_step(net, x):
    ad.backward(ad.mse_loss(net.forward(x), np.zeros((1, 3))))
    AdamOptimizer(net.parameters(), lr=0.01).step()


def _load_state_dict(net, x):
    state = net.state_dict()
    state["block1.tcn_b.reduce.weight"] += 0.01
    net.load_state_dict(state)


def _assign_value(net, x):
    unit = net.blocks[2].tcn_a
    unit.reduce_w.value = unit.reduce_w.value + 0.01


def _edit_branch_kernel(net, x):
    net.blocks[0].tcn_a.kernels[-1][1].value[0, 0, 0] += 0.01


def _edit_reduce_bias(net, x):
    net.blocks[3].tcn_b.reduce_b.value[1] = 0.5


def _replace_variable(net, x):
    unit = net.blocks[1].tcn_a
    unit.reduce_b = Variable(unit.reduce_b.value + 0.01)


def _edit_input_proj(net, x):
    net.input_w.value[2, 1] += 0.01


def _assign_head_conv2_bias(net, x):
    net.head2_b.value = net.head2_b.value + 0.01


def _edit_dense_weight(net, x):
    net.dense_w.value[1, 7] += 0.5


_CHANGES = {
    "adam": _adam_step,
    "load_state_dict": _load_state_dict,
    "assign_value": _assign_value,
    "edit_branch_kernel": _edit_branch_kernel,
    "edit_reduce_bias": _edit_reduce_bias,
    "replace_variable": _replace_variable,
    "edit_input_proj": _edit_input_proj,
    "assign_head_conv2_bias": _assign_head_conv2_bias,
    "edit_dense_weight": _edit_dense_weight,
}


class TestBackwardReadsOperandsAsRecorded:
    @pytest.mark.parametrize(
        "name",
        ["head.conv1.weight", "head.conv2.weight", "head.dense.weight", "block0.gcn.theta",
         "block0.skip.weight", "block0.tcn_a.branch0.kernel", "input_proj.weight", "adjacency.e1"],
    )
    def test_assigning_a_parameter_before_backward_changes_no_gradient(self, name, rng):
        x = rng.normal(size=(2, 4, 3, 16))
        target = rng.normal(size=(2, 2))

        def gradients(edit):
            net = Network(small_config(), seed=0)
            loss = ad.mse_loss(net.forward(x), target)
            if edit:
                p = dict(net.parameters())[name]
                p.value = p.value + 0.5
            ad.backward(loss)
            return {n: p.grad if p.grad is None else p.grad.tobytes() for n, p in net.parameters()}

        assert gradients(edit=True) == gradients(edit=False)


_CHANGE_KINDS = ["adam", "load_state_dict", "assign", "in_place", "none"]
_TINY = dict(
    num_blocks=2, residual_channels=2, skip_channels=3, head_channels=(3, 2), embedding_width=2,
    window=6, horizon=1, num_nodes=2, num_features=4, target_nodes=[1],
)


class TestComposedCache:
    """Each block keeps the gate kernel its parameters were last composed
    into (block 0's with input_proj folded in), and the network the head's;
    a forward on the same bits reuses them, any change composes again."""

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "no_grad"])
    def test_forecasts_bitwise_equal_to_a_fresh_network(self, variant, batch, record, rng):
        net = _perturbed(variant, rng)
        x = rng.normal(size=(batch, 4, 5, 48))
        ref = _forecast(_fresh_copy(net), x, record)
        assert _forecast(net, x, record).tobytes() == ref.tobytes()  # a miss
        stored = _stored(net)
        for _ in range(2):  # hits: nothing is composed again
            assert _forecast(net, x, record).tobytes() == ref.tobytes()
            assert all(a is b for a, b in zip(_stored(net), stored, strict=True))

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    def test_gradients_bitwise_equal_over_adam_steps(self, variant, rng):
        net = _perturbed(variant, rng)
        opt = AdamOptimizer(net.parameters(), lr=0.01)
        x = rng.normal(size=(2, 4, 5, 48))
        target = rng.normal(size=(2, 3))
        for _ in range(3):
            ref = _fresh_copy(net)
            _forecast(net, x, record=False)  # store the kernels, so the step hits
            for model in (net, ref):
                model.zero_grad()
                ad.backward(ad.mse_loss(model.forward(x), target))
            refs = dict(ref.parameters())
            for name, p in net.parameters():
                if refs[name].grad is None:
                    assert p.grad is None, name
                else:
                    assert p.grad.tobytes() == refs[name].grad.tobytes(), name
            opt.step()

    @pytest.mark.parametrize("change", list(_CHANGES))
    def test_next_forecast_follows_a_changed_parameter(self, change, rng):
        net = _perturbed(MULTI_SCALE, rng)
        x = rng.normal(size=(1, 4, 5, 48))
        before = _forecast(net, x, record=False)
        _CHANGES[change](net, x)
        after = _forecast(net, x, record=False)
        assert after.tobytes() == _forecast(_fresh_copy(net), x, record=False).tobytes()
        assert not np.array_equal(after, before)

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from([MULTI_SCALE, SINGLE_SCALE]),
        changes=st.lists(
            st.tuples(st.sampled_from(_CHANGE_KINDS), st.integers(0, 999),
                      st.sampled_from([0.5, -0.25, 1e-3])),
            min_size=1, max_size=6,
        ),
        record=st.booleans(),
    )
    def test_forecasts_follow_any_sequence_of_changes(self, variant, changes, record):
        """After each change to a parameter that a cache composes from, a
        forecast on tiny shapes equals, bit for bit, that of a fresh Network
        holding the same state."""
        branches = [[(2, 1), (3, 1)]] * 2 if variant == MULTI_SCALE else [[(2, 1)], [(2, 2)]]
        net = Network(ModelConfig(variant=variant, branch_specs=branches, **_TINY), seed=1)
        folded = ("input_proj.", "head.conv2.", "head.dense.")
        composed = [n for n, _ in net.parameters() if ".tcn_" in n or n.startswith(folded)]
        x = np.random.default_rng(0).normal(size=(2, 4, 2, 6))
        opt = AdamOptimizer(net.parameters(), lr=0.05)
        for kind, pick, delta in changes:
            name = composed[pick % len(composed)]
            p = dict(net.parameters())[name]
            if kind == "adam":
                net.zero_grad()
                ad.backward(ad.mse_loss(net.forward(x), np.ones((2, 1))))
                opt.step()
            elif kind == "load_state_dict":
                state = net.state_dict()
                state[name] += delta
                net.load_state_dict(state)
            elif kind == "assign":
                p.value = p.value + delta
            elif kind == "in_place":
                p.value.flat[pick % p.value.size] += delta
            want = _forecast(_fresh_copy(net), x, record)
            assert _forecast(net, x, record).tobytes() == want.tobytes(), (kind, name)

    def test_a_network_dies_after_its_forward(self, rng):
        net = Network(small_config(), seed=0)
        alive = weakref.ref(net)
        net.forward(rng.normal(size=(2, 4, 3, 16)))
        del net
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize(
        "name", ["block0.tcn_a.branch0.kernel", "input_proj.weight", "head.dense.weight"]
    )
    def test_recorded_backward_outlives_a_refresh(self, name, rng):
        """A forward recorded on a hit, then a forecast whose miss composes
        the cached kernels again: the first loss's backward still reads the
        kernels of its own forward."""
        net = _perturbed(MULTI_SCALE, rng)
        x = rng.normal(size=(2, 4, 5, 48))
        target = rng.normal(size=(2, 3))
        param = dict(net.parameters())[name]

        def input_grad(between):
            xv = Variable(x)
            loss = ad.mse_loss(net.forward(xv), target)
            between()
            ad.backward(loss)
            return xv.grad

        def refresh():
            stored = [v.copy() for v in _stored(net)]
            param.value = param.value + 0.01
            _forecast(net, x, record=False)
            assert any(not np.array_equal(a, b) for a, b in zip(_stored(net), stored))

        _forecast(net, x, record=False)  # store the kernels, so the next forward hits
        want = input_grad(lambda: None)
        np.testing.assert_array_equal(input_grad(refresh), want)

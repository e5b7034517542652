"""Acceptance gate: one test per release criterion, each printing an
explicit pass/fail line.

Criterion 6 exercises the real-data protocol and only runs when
MSWAVENET_DENMARK_DIR points at station CSVs in the documented schema.
"""

import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mswavenet import autodiff as ad
from mswavenet.autodiff import Variable
from mswavenet.data import MinMaxScaler, assemble, make_windows
from mswavenet.graph import adjacency_softmax, gcn_forward
from mswavenet.model import (
    MULTI_SCALE,
    SINGLE_SCALE,
    ModelConfig,
    Network,
    receptive_field,
)
from mswavenet.synthetic import (
    SyntheticSpec,
    adjacency_recovery_score,
    cycle_adjacency,
    generate,
)
from mswavenet.training import (
    PlateauScheduler,
    evaluate,
    overfit,
    persistence_baseline,
    train,
)

from conftest import finite_difference, rel_err

FD_H = 1e-5
FD_TOL = 1e-4


def report(number, description, ok):
    print(f"\ncriterion {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {description}"


def _grad_check(build_loss, leaves):
    """Analytic vs central finite-difference gradients for every leaf."""
    loss = build_loss()
    ad.backward(loss)
    worst = 0.0
    for leaf in leaves:
        base = leaf.value.copy()

        def scalar(v, leaf=leaf, base=base):
            leaf.value = v
            out = float(build_loss().value)
            leaf.value = base
            return out

        fd = finite_difference(scalar, base, h=FD_H)
        worst = max(worst, rel_err(leaf.grad, fd))
    return worst


def test_criterion_1_gradient_correctness():
    """The 4-D ops take [C, W, B, N] activations: channel, time, batch, node."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        # dilated causal convolution
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        x = Variable(rng.normal(size=(2, 8, 1, 2)))
        kern = Variable(rng.normal(size=(2, 2, k)))
        worst = max(
            worst,
            _grad_check(lambda: ad.total(ad.conv_time_dilated_causal(x, kern, d)), [x, kern]),
        )
        # causal convolution at explicit lags, with bias
        lags = sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False).tolist())
        xl = Variable(rng.normal(size=(2, 8, 1, 2)))
        kl = Variable(rng.normal(size=(3, len(lags), 2)))  # [Co, L, Ci]
        bl = Variable(rng.normal(size=3))
        worst = max(
            worst,
            _grad_check(lambda: ad.total(ad.conv_time_causal(xl, kl, lags, bl)), [xl, kl, bl]),
        )
        # kernel composition of two branch -> concat -> reduce units
        branches = [(2, 1), (3, 2)]
        union = sorted({(kk - 1 - j) * dd for kk, dd in branches for j in range(kk)})
        units = [
            (
                Variable(rng.normal(size=(2, 4))),
                Variable(rng.normal(size=2)),
                [(Variable(rng.normal(size=(2, 2, kk))), dd) for kk, dd in branches],
            )
            for _ in range(2)
        ]
        probe = rng.normal(size=(4, len(union), 2))  # the composed kernel's [Co, L, Ci]

        def compose_loss():
            kc, bc = ad.compose_causal_kernel(units, union)
            return ad.add(
                ad.total(ad.multiply(kc, Variable(probe, requires_grad=False))), ad.total(bc)
            )

        leaves = [v for r, b, brs in units for v in (r, b, *(k for k, _ in brs))]
        worst = max(worst, _grad_check(compose_loss, leaves))
        # 1x1 convolution
        x1 = Variable(rng.normal(size=(3, 4, 2, 2)))
        w1 = Variable(rng.normal(size=(2, 3)))
        b1 = Variable(rng.normal(size=2))
        worst = max(
            worst, _grad_check(lambda: ad.total(ad.conv_1x1(x1, w1, b1)), [x1, w1, b1])
        )
        # gated unit
        a = Variable(rng.normal(size=(2, 3, 1, 2)))
        b = Variable(rng.normal(size=(2, 3, 1, 2)))
        worst = max(
            worst,
            _grad_check(lambda: ad.total(ad.multiply(ad.tanh(a), ad.sigmoid(b))), [a, b]),
        )
        # gated unit as one op over a stacked (filter, gate) pair, with a
        # non-uniform upstream gradient
        z = Variable(rng.normal(size=(4, 3, 1, 2)))
        wz = Variable(rng.normal(size=(2, 3, 1, 2)), requires_grad=False)
        worst = max(
            worst,
            _grad_check(lambda: ad.total(ad.multiply(ad.gated_tanh_sigmoid(z), wz)), [z]),
        )
        # graph convolution through the softmax-embedding adjacency
        e1, e2 = (Variable(rng.uniform(-0.5, 0.5, size=(3, 2))) for _ in range(2))
        xg = Variable(rng.normal(size=(2, 4, 1, 3)))
        theta = Variable(rng.normal(size=(2, 2)))
        bias = Variable(rng.normal(size=2))

        def gcn_loss():
            return ad.total(
                gcn_forward(xg, adjacency_softmax(e1, e2), theta, bias)
            )

        worst = max(worst, _grad_check(gcn_loss, [e1, e2, xg, theta, bias]))
        # dense layer
        xd = Variable(rng.normal(size=(2, 5)))
        wd = Variable(rng.normal(size=(3, 5)))
        bd = Variable(rng.normal(size=3))
        worst = max(
            worst, _grad_check(lambda: ad.total(ad.dense(xd, wd, bd)), [xd, wd, bd])
        )
        # a 1x1 convolution folded into a causal kernel, run over the input
        # with a ones channel appended
        xf = Variable(rng.normal(size=(2, 8, 1, 2)))
        ones = Variable(np.ones((1, 8, 1, 2)), requires_grad=False)
        kf = Variable(rng.normal(size=(3, len(lags), 2)))  # [Co, L, C]
        wf = Variable(rng.normal(size=(2, 2)))
        bf = Variable(rng.normal(size=2))

        def fold_loss():
            folded = ad.fold_conv_1x1(kf, wf, bf)
            return ad.total(ad.conv_time_causal(ad.concat_channels([xf, ones]), folded, lags))

        worst = max(worst, _grad_check(fold_loss, [xf, kf, wf, bf]))
        # 1x1 convolution -> flatten -> dense, composed into one contraction
        xh = Variable(rng.normal(size=(3, 4, 2, 2)))  # [C, W, B, N]
        wh, bh = Variable(rng.normal(size=(2, 3))), Variable(rng.normal(size=2))
        wdh, bdh = Variable(rng.normal(size=(3, 2 * 2 * 4))), Variable(rng.normal(size=3))
        gh = Variable(rng.normal(size=(2, 3)), requires_grad=False)

        def head_loss():
            kernel, bias = ad.compose_head(wh, bh, wdh, bdh, nodes=2)
            return ad.total(ad.multiply(ad.dense_time_major(xh, kernel, bias), gh))

        worst = max(worst, _grad_check(head_loss, [xh, wh, bh, wdh, bdh]))
    report(
        1,
        f"gradients match finite differences, worst rel err {worst:.2e} < {FD_TOL}",
        worst < FD_TOL,
    )


def test_criterion_2_architecture_invariants():
    rng = np.random.default_rng(7)
    ok = True
    # (a) causality: perturbing hour t leaves block-stack outputs before t unchanged
    net = Network(ModelConfig(), seed=0)
    x = rng.normal(size=(1, 4, 5, 48))
    base = net.temporal_stack(x).value
    for t in (10, 30, 47):
        xp = x.copy()
        xp[0, :, :, t] += 1.0
        out = net.temporal_stack(xp).value
        ok = ok and np.array_equal(out[..., :t], base[..., :t])
        ok = ok and not np.allclose(out[..., t], base[..., t])
    # (b) receptive_field matches the empirical perturbation probe exactly
    cfg = ModelConfig(variant=SINGLE_SCALE, num_blocks=4, window=20, num_nodes=3,
                      residual_channels=4, skip_channels=4, head_channels=(4, 3),
                      embedding_width=3, target_nodes=[0])
    probe_net = Network(cfg, seed=1)
    xs = rng.normal(size=(1, 4, 3, 20))
    ref = probe_net.temporal_stack(xs).value[0, :, :, -1]
    reach = []
    for t in range(20):
        xp = xs.copy()
        xp[0, :, :, t] += 1.0
        if not np.allclose(probe_net.temporal_stack(xp).value[0, :, :, -1], ref):
            reach.append(t)
    empirical = 20 - min(reach)
    ok = ok and empirical == receptive_field(cfg) == 16
    # (c) adjacency rows sum to 1 within 1e-9 and generic matrices are asymmetric
    adj = net.adjacency().values.value
    ok = ok and np.all(np.abs(adj.sum(axis=1) - 1.0) < 1e-9)
    ok = ok and not np.allclose(adj, adj.T)
    # (d) forward shape [64, 4, 5, 48] -> [64, 3]
    ok = ok and net.forward(rng.normal(size=(64, 4, 5, 48))).value.shape == (64, 3)
    report(2, "causality, receptive field, adjacency, output shape", ok)


def test_criterion_3_scheduler_rule():
    class Opt:
        lr = 0.001

    opt = Opt()
    saved = []
    restored = []
    epoch = {"n": 0}
    sched = PlateauScheduler(
        opt,
        save_best=lambda: saved.append(epoch["n"]),
        restore_best=lambda: restored.append(saved[-1]),
        factor=0.7,
        patience=3,
    )
    events = []
    for i, loss in enumerate([1.0, 0.9, 0.95, 0.96, 0.97], start=1):
        epoch["n"] = i
        events.append(sched.step(loss))
    ok = (
        opt.lr == pytest.approx(0.0007)
        and [e["cut"] for e in events] == [False, False, False, False, True]
        and restored == [2]  # the reload pulls the epoch-2 best weights
    )
    # lr after k cuts is 0.001 * 0.7^k exactly
    for k in range(1, 4):
        sched.step(2.0)
        sched.step(2.0)
        sched.step(2.0)
        ok = ok and opt.lr == pytest.approx(0.001 * 0.7 ** (k + 1))
    report(3, "plateau rule: cut to 7e-4 after epoch 5, reload epoch-2 best", ok)


def _synthetic_frames(spec):
    series = generate(spec)
    node_order = [s.station_name for s in series]
    raw, ts = assemble(series, node_order)
    return raw, ts, node_order


def test_criterion_4_overfit_sanity():
    spec = SyntheticSpec(num_nodes=5, length=200, seed=0)
    raw, ts, node_order = _synthetic_frames(spec)
    scaler = MinMaxScaler.fit(raw)
    ds = make_windows(scaler.apply(raw), raw, 48, 6, [0, 3, 4], node_order, ts)
    inputs = ds.inputs[:32]
    targets = np.stack(
        [
            scaler.normalize_wind_speed(ds.targets[:32, j], node)
            for j, node in enumerate(ds.target_nodes)
        ],
        axis=1,
    )
    net = Network(ModelConfig(), seed=0, node_order=node_order)
    steps, mse = overfit(net, inputs, targets, max_steps=2000, lr=0.001, tol=1e-3)
    report(
        4,
        f"default model memorizes 32 samples: MSE {mse:.2e} in {steps} steps",
        mse < 1e-3 and steps <= 2000,
    )


def _train_on_planted_graph(seed):
    """Train the multi-scale model on a planted cyclic AR process."""
    spec = SyntheticSpec(
        num_nodes=5,
        true_adjacency=cycle_adjacency(5, self_weight=0.05),
        ar_coefficient=0.9,
        noise_std=0.02,
        length=3000,
        seed=seed,
    )
    raw, ts, node_order = _synthetic_frames(spec)
    length = raw.shape[0]
    n_train, n_val = length - 500, 200
    window, horizon = 16, 1
    scaler = MinMaxScaler.fit(raw[:n_train])

    def windows(lo, hi):
        return make_windows(
            scaler.apply(raw[lo:hi]), raw[lo:hi], window, horizon,
            [0, 1, 2, 3, 4], node_order, ts[lo:hi],
        )

    cfg = ModelConfig(
        variant=MULTI_SCALE,
        num_blocks=4,
        residual_channels=16,
        skip_channels=32,
        head_channels=(32, 16),
        window=window,
        horizon=horizon,
        num_nodes=5,
        num_features=4,
        target_nodes=[0, 1, 2, 3, 4],
    )
    net = Network(cfg, seed=seed + 100, node_order=node_order)
    with tempfile.TemporaryDirectory() as td:
        ckpt = os.path.join(td, "best.bin")
        result = train(
            net,
            windows(0, n_train),
            windows(n_train, n_train + n_val),
            scaler,
            ckpt,
            lr=0.002,
            epochs=25,
            batch_size=64,
            seed=seed,
        )
        test_ds = windows(n_train + n_val, length)
        model_mse = evaluate(result.checkpoint, test_ds, scaler).mse
        persistence_mse = persistence_baseline(test_ds, scaler).mse
        learned = result.checkpoint.build_network(node_order=node_order).adjacency()
        recovery = adjacency_recovery_score(learned.values.value, spec.true_adjacency)
    return model_mse, persistence_mse, recovery


def _one_core_each():
    """Worker set-up: one OpenBLAS thread and one autodiff lane, so that
    two workers take one core each. With the default two BLAS threads each,
    they spun on each other's cores and criterion 5 took twice as long as a
    serial run; a second lane each would put four busy threads on two
    cores in the same way."""
    ad.blas_threads(1)
    ad._second_lane = lambda: False


def test_criterion_5_synthetic_end_to_end():
    """The three seeds are independent runs: they train in at most two
    forked processes that take one core each, and are reported in seed
    order."""
    beats = []
    recoveries = {}
    seeds = (0, 1, 2)
    with ProcessPoolExecutor(
        min(2, os.cpu_count() or 1),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_one_core_each,
    ) as pool:
        runs = list(pool.map(_train_on_planted_graph, seeds))
    for seed, (model_mse, persistence_mse, recovery) in zip(seeds, runs):
        beats.append(model_mse < persistence_mse)
        recoveries[seed] = recovery
        print(
            f"seed {seed}: model mse {model_mse:.5f} vs persistence "
            f"{persistence_mse:.5f}, recovery {recovery.score}"
        )
    # (b) holds for the designated deterministic run (seed 0); the flatten +
    # dense head makes adjacency/permutation alignment seed-dependent
    designated = recoveries[0]
    ok = all(beats) and designated.score >= 0.6 and not designated.degenerate
    report(
        5,
        "beats persistence on 3 seeds; adjacency recovery "
        f"{designated.score} >= 0.6 on the designated run",
        ok,
    )


@pytest.mark.skipif(
    not os.environ.get("MSWAVENET_DENMARK_DIR"),
    reason="set MSWAVENET_DENMARK_DIR to station CSVs to run the real-data protocol",
)
def test_criterion_6_real_data_protocol():
    from mswavenet import pipeline
    from mswavenet.config import RunConfig

    data_dir = os.environ["MSWAVENET_DENMARK_DIR"]
    results = {}
    with tempfile.TemporaryDirectory() as td:
        for variant in (MULTI_SCALE, SINGLE_SCALE):
            for horizon in (6, 18, 24):
                cfg = RunConfig(
                    {
                        "data.dir": data_dir,
                        "out.dir": td,
                        "model.variant": variant,
                        "model.horizon": horizon,
                    }
                )
                prepared = pipeline.prepare(cfg)
                net = Network(
                    cfg.model_config(), seed=cfg["seed"], node_order=prepared.node_order
                )
                ckpt = os.path.join(td, f"{variant}_h{horizon}.bin")
                result = train(
                    net,
                    prepared.train,
                    prepared.val,
                    prepared.scaler,
                    ckpt,
                    lr=cfg["train.lr"],
                    epochs=cfg["train.epochs"],
                    batch_size=cfg["train.batch_size"],
                    seed=cfg["seed"],
                )
                metrics = evaluate(result.checkpoint, prepared.test, prepared.scaler)
                results[(variant, horizon)] = metrics
                print(f"{variant} h={horizon}: mae {metrics.mae:.3f} mse {metrics.mse:.3f}")
    m6 = results[(MULTI_SCALE, 6)]
    # sanity target band, reported but not gating
    print(
        f"6h multi-scale vs reference: mae {m6.mae:.3f} (target 1.243 +/- 15%), "
        f"mse {m6.mse:.3f} (target 2.563 +/- 15%)"
    )
    ok = all(
        results[(MULTI_SCALE, h)].mse < results[(SINGLE_SCALE, h)].mse
        for h in (18, 24)
    )
    report(6, "multi-scale MSE below single-scale at 18h and 24h", ok)


def test_criterion_7_reproducibility():
    spec = SyntheticSpec(num_nodes=3, length=300, seed=5)
    raw, ts, node_order = _synthetic_frames(spec)
    scaler = MinMaxScaler.fit(raw[:250])
    train_ds = make_windows(scaler.apply(raw[:250]), raw[:250], 8, 2, [0, 1], node_order, ts[:250])
    val_ds = make_windows(scaler.apply(raw[250:]), raw[250:], 8, 2, [0, 1], node_order, ts[250:])
    cfg = ModelConfig(
        variant=SINGLE_SCALE, num_blocks=1, branch_specs=[[(2, 1)]],
        residual_channels=3, skip_channels=4, head_channels=(4, 3),
        embedding_width=2, window=8, horizon=2, num_nodes=3,
        target_nodes=[0, 1],
    )

    def run(path):
        net = Network(cfg, seed=9, node_order=node_order)
        train(net, train_ds, val_ds, scaler, path, epochs=3, batch_size=32, seed=9)
        with open(path, "rb") as fh:
            return fh.read()

    with tempfile.TemporaryDirectory() as td:
        blob_a = run(os.path.join(td, "a.bin"))
        blob_b = run(os.path.join(td, "b.bin"))
    report(7, "identical config + seed give bitwise-identical checkpoints", blob_a == blob_b)

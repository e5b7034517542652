import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import per_station
from conftest import backward_keeping_tape
from mswavenet import autodiff as ad
from mswavenet import training
from mswavenet.autodiff import Variable
from mswavenet.config import ConfigError
from mswavenet.data import WIND_SPEED, MinMaxScaler, make_windows
from mswavenet.model import MULTI_SCALE, SINGLE_SCALE, ModelConfig, Network
from mswavenet.training import (
    MAGIC,
    TRAILER_TYPES,
    AdamOptimizer,
    Checkpoint,
    CheckpointError,
    PlateauScheduler,
    TrainingError,
    evaluate,
    forecast,
    overfit,
    persistence_baseline,
    predict_physical,
    train,
)


def tiny_config(**over):
    base = dict(
        variant=SINGLE_SCALE,
        num_blocks=1,
        residual_channels=3,
        skip_channels=4,
        head_channels=(4, 3),
        branch_specs=[[(2, 1)]],
        embedding_width=2,
        window=8,
        horizon=2,
        num_nodes=2,
        num_features=4,
        target_nodes=[0, 1],
    )
    base.update(over)
    return ModelConfig(**base)


def tiny_dataset(rng, length=40, horizon=2):
    raw = rng.uniform(0, 20, size=(length, 4, 2))
    scaler = MinMaxScaler.fit(raw)
    ds = make_windows(scaler.apply(raw), raw, 8, horizon, [0, 1])
    return ds, scaler


class TestAdamOptimizer:
    def test_no_gradient_is_noop(self):
        p = Variable(np.array([1.0, 2.0]))
        opt = AdamOptimizer([("p", p)])
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_first_step_is_signed_lr(self):
        # loss w^2 at w=1: first Adam step moves by exactly lr regardless of
        # gradient magnitude (bias-corrected m/sqrt(v) = sign of g)
        w = Variable(np.array(1.0))
        opt = AdamOptimizer([("w", w)], lr=0.001)
        loss = ad.multiply(w, w)
        ad.backward(loss)
        opt.step()
        assert float(w.value) == pytest.approx(0.999, abs=1e-9)

    def test_ten_step_bitwise_determinism(self, rng):
        x0 = rng.normal(size=(3, 4))

        def run():
            w = Variable(x0.copy())
            opt = AdamOptimizer([("w", w)], lr=0.01)
            for _ in range(10):
                w.zero_grad()
                ad.backward(ad.mse_loss(w, np.ones((3, 4))))
                opt.step()
            return w.value

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_names_parameter(self):
        p = Variable(np.array([1.0]))
        p.grad = np.array([np.nan])
        opt = AdamOptimizer([("block0.gcn.theta", p)])
        with pytest.raises(TrainingError, match="block0.gcn.theta"):
            opt.step()

    def test_converges_on_quadratic(self):
        w = Variable(np.array([5.0, -3.0]))
        opt = AdamOptimizer([("w", w)], lr=0.1)
        for _ in range(500):
            w.zero_grad()
            ad.backward(ad.mse_loss(w, np.zeros(2)))
            opt.step()
        assert np.all(np.abs(w.value) < 1e-3)


class FakeOpt:
    def __init__(self, lr=0.001):
        self.lr = lr


class TestPlateauScheduler:
    @staticmethod
    def run_script(losses, factor=0.7, patience=3):
        opt = FakeOpt()
        calls = {"save": 0, "restore": 0}
        sched = PlateauScheduler(
            opt,
            save_best=lambda: calls.__setitem__("save", calls["save"] + 1),
            restore_best=lambda: calls.__setitem__("restore", calls["restore"] + 1),
            factor=factor,
            patience=patience,
        )
        events = [sched.step(v) for v in losses]
        return opt, calls, events

    def test_cut_after_three_flat_epochs(self):
        opt, calls, events = self.run_script([1.0, 0.9, 0.95, 0.96, 0.97])
        assert opt.lr == pytest.approx(0.0007)
        assert [e["cut"] for e in events] == [False, False, False, False, True]
        assert calls["save"] == 2  # epochs 1 and 2 improved
        assert calls["restore"] == 1

    def test_two_plateaus_compound(self):
        opt, _, _ = self.run_script([1.0] + [2.0] * 6)
        assert opt.lr == pytest.approx(0.001 * 0.7 * 0.7)

    def test_monotone_improvement_never_cuts(self):
        opt, calls, events = self.run_script([1.0, 0.9, 0.8, 0.7, 0.6])
        assert opt.lr == 0.001
        assert calls["restore"] == 0
        assert calls["save"] == 5

    def test_lr_never_increases(self, rng):
        opt, _, events = self.run_script(list(rng.uniform(0, 1, 30)))
        lrs = [e["lr"] for e in events]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_equal_loss_is_not_improvement(self):
        opt, calls, _ = self.run_script([1.0, 1.0, 1.0, 1.0])
        assert calls["save"] == 1
        assert opt.lr == pytest.approx(0.0007)

    def test_cut_without_best_raises(self):
        with pytest.raises(TrainingError):
            self.run_script([math.inf] * 3)


def checkpoint_blob(entries=(), trailer=None):
    """Hand-built STGW1 bytes: (name, dims, payload) byte entries, then a
    raw trailer (default: a minimal valid JSON one)."""
    if trailer is None:
        trailer = json.dumps(
            {
                "config": tiny_config().to_dict(),
                "scaler": {}, "seed": 0, "epoch": 0, "val_loss": 0.0,
            }
        ).encode()
    parts = [MAGIC, struct.pack("<I", len(entries))]
    for name, dims, payload in entries:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", len(dims))]
        parts += [struct.pack(f"<{len(dims)}I", *dims), payload]
    parts += [struct.pack("<I", len(trailer)), trailer]
    return b"".join(parts)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_trailers = st.one_of(
    st.binary(max_size=32),
    _json.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({}, optional=dict.fromkeys(TRAILER_TYPES, _json)).map(
        lambda d: json.dumps(d).encode()
    ),
)
_entries = st.lists(
    st.tuples(
        st.binary(max_size=6),
        st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 3), max_size=4),
        st.binary(max_size=48),
    ),
    max_size=3,
)


def trailer_with_config(key, value):
    """A valid trailer whose model config has config[key] = value."""
    config = tiny_config().to_dict()
    config[key] = value
    trailer = {"config": config, "scaler": {}, "seed": 0, "epoch": 0, "val_loss": 0.0}
    return json.dumps(trailer).encode()


_config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_stgw1_blobs = st.one_of(
    st.binary(max_size=64).map(lambda tail: MAGIC + tail),
    st.builds(checkpoint_blob, _entries, _trailers),
    st.builds(
        checkpoint_blob,
        st.just(()),
        st.builds(
            trailer_with_config, st.sampled_from(sorted(tiny_config().to_dict())), _config_values
        ),
    ),
)


class TestCheckpoint:
    @staticmethod
    def sample(rng):
        return Checkpoint(
            params={
                "b.weight": rng.normal(size=(3, 2)),
                "a.kernel": rng.normal(size=(2, 2, 3)),
                "scalar": np.array(1.5),
            },
            config=tiny_config().to_dict(),
            scaler={"mins": [[0.0, 1.0]], "maxs": [[2.0, 3.0]]},
            seed=7,
            epoch=12,
            val_loss=0.034,
        )

    def test_round_trip(self, tmp_path, rng):
        ck = self.sample(rng)
        path = tmp_path / "model.bin"
        ck.save(path)
        back = Checkpoint.load(path)
        assert set(back.params) == set(ck.params)
        for k in ck.params:
            np.testing.assert_array_equal(back.params[k], ck.params[k])
        assert (back.config, back.scaler) == (ck.config, ck.scaler)
        assert (back.seed, back.epoch, back.val_loss) == (7, 12, 0.034)

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        ck = self.sample(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        ck.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "best.bin"
        self.sample(rng).save(path)
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(training, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            self.sample(rng).save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        Checkpoint.load(path)
        assert [p.name for p in tmp_path.iterdir()] == ["best.bin"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE!" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.load(p)

    def test_truncation(self, tmp_path, rng):
        p = tmp_path / "t.bin"
        self.sample(rng).save(p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.load(p)

    def test_hand_built_blob_loads(self, tmp_path):
        p = tmp_path / "ok.bin"
        p.write_bytes(checkpoint_blob([(b"w", (2,), struct.pack("<2d", 1.0, 2.0))]))
        np.testing.assert_array_equal(Checkpoint.load(p).params["w"], [1.0, 2.0])

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (MAGIC + b"garbage", "truncated"),
            (checkpoint_blob([(b"w", (1,), b"\0" * 8)] * 2), "params.w: listed twice"),
            (checkpoint_blob(trailer=b'{"config": {}, "seed": 0, "epoch": 0, "val_loss": 0}'), "scaler"),
            (checkpoint_blob([(b"w", (2**31, 2**31, 2**31), b"")]), "truncated"),
            (checkpoint_blob([(b"w", (1,) * 70, b"\0" * 8)]), "malformed"),
            (checkpoint_blob([(b"\xff\xfe", (), b"\0" * 8)]), "malformed.*utf-8"),
            (checkpoint_blob(trailer=b"\xff{}"), "malformed.*utf-8"),
            (checkpoint_blob(trailer=b"{not json"), "malformed"),
            (checkpoint_blob(trailer=b"[1, 2]"), "not a JSON object"),
            (checkpoint_blob(trailer=b'{"config": 5, "scaler": {}, "seed": 0, "epoch": 0}'), "config"),
            (
                checkpoint_blob(
                    trailer=b'{"config": {}, "scaler": {}, "seed": 0, "epoch": 0, "val_loss": 0}'
                ),
                "not a model config",
            ),
        ],
        ids=[
            "garbage", "param-twice", "no-scaler", "overflowing-dims", "too-many-dims", "name-not-utf8",
            "trailer-not-utf8", "trailer-not-json", "trailer-not-object", "config-not-object",
            "config-not-a-model",
        ],
    )
    def test_malformed_raises_naming_path(self, tmp_path, blob, reason):
        p = tmp_path / "bad.bin"
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match=re.escape(str(p))) as exc:
            Checkpoint.load(p)
        assert re.search(reason, str(exc.value))

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(blob=_stgw1_blobs)
    def test_any_stgw1_bytes_load_or_raise_checkpoint_error(self, tmp_path, blob):
        p = tmp_path / "fuzz.bin"
        p.write_bytes(blob)
        try:
            ckpt = Checkpoint.load(p)
        except CheckpointError as exc:
            assert str(p) in str(exc)
        else:
            Network(ModelConfig.from_dict(ckpt.config))  # a loaded config builds its model

    def test_node_order_is_optional(self, tmp_path, rng):
        ck = self.sample(rng)
        for order in (None, ["b", "a"]):
            ck.node_order = order
            ck.save(tmp_path / "ck.bin")
            assert Checkpoint.load(tmp_path / "ck.bin").node_order == order

    @pytest.mark.parametrize("order", [["a"], ["a", "a"], ["a", 1], "ab"])
    def test_bad_node_order_names_path(self, tmp_path, order):
        trailer = {"config": tiny_config().to_dict(), "scaler": {}, "seed": 0, "epoch": 0,
                   "val_loss": 0.0, "node_order": order}
        p = tmp_path / "bad.bin"
        p.write_bytes(checkpoint_blob(trailer=json.dumps(trailer).encode()))
        with pytest.raises(CheckpointError, match=re.escape(str(p)) + ".*node_order"):
            Checkpoint.load(p)

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("seed", True, "must be an int"),
            ("seed", False, "must be an int"),
            ("epoch", False, "must be a non-negative int"),
            ("epoch", -1, "must be a non-negative int"),
            ("val_loss", True, "must be a finite number"),
            ("val_loss", float("nan"), "must be a finite number"),
            ("val_loss", float("-inf"), "must be a finite number"),
        ],
    )
    def test_bad_trailer_number_names_key(self, tmp_path, key, value, reason):
        trailer = {"config": tiny_config().to_dict(), "scaler": {}, "seed": 0, "epoch": 0,
                   "val_loss": 0.0, key: value}
        p = tmp_path / "bad.bin"
        p.write_bytes(checkpoint_blob(trailer=json.dumps(trailer).encode()))
        with pytest.raises(CheckpointError) as exc:
            Checkpoint.load(p)
        assert str(exc.value) == f"{p}: {key}: {reason}, got {value!r}"

    @pytest.mark.parametrize(
        "seed, epoch, val_loss", [(100, 0, 0.0), (0, 3, 0), (2**40, 10**6, 1e300)]
    )
    def test_trailer_numbers_at_their_bounds_load(self, tmp_path, seed, epoch, val_loss):
        """perfbench writes seed 100, epoch 0 and val_loss 0.0."""
        net = Network(tiny_config(), seed=seed)
        ck = Checkpoint(params=net.state_dict(), config=net.config.to_dict(), scaler={},
                        seed=seed, epoch=epoch, val_loss=val_loss)
        ck.save(tmp_path / "ck.bin")
        back = Checkpoint.load(tmp_path / "ck.bin")
        assert (back.seed, back.epoch, back.val_loss) == (seed, epoch, val_loss)
        assert back.build_network().seed == seed

    def test_negative_seed_fails_to_build_naming_seed(self, rng):
        net = Network(tiny_config(), seed=0)
        ck = Checkpoint(params=net.state_dict(), config=net.config.to_dict(), scaler={},
                        seed=-1, epoch=0, val_loss=0.0)
        with pytest.raises(CheckpointError, match="^seed: must be a non-negative int, got -1$"):
            ck.build_network()

    def test_trailing_garbage(self, tmp_path, rng):
        p = tmp_path / "g.bin"
        self.sample(rng).save(p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            Checkpoint.load(p)

    def test_build_network_reproduces_forward(self, tmp_path, rng):
        net = Network(tiny_config(), seed=4)
        ck = Checkpoint(
            params=net.state_dict(),
            config=net.config.to_dict(),
            scaler={},
            seed=4,
            epoch=1,
            val_loss=0.1,
        )
        path = tmp_path / "net.bin"
        ck.save(path)
        net2 = Checkpoint.load(path).build_network()
        x = rng.normal(size=(2, 4, 2, 8))
        np.testing.assert_array_equal(net.forward(x).value, net2.forward(x).value)

    def test_build_network_binds_station_names(self):
        net = Network(tiny_config(), seed=4, node_order=["b", "a"])
        ck = Checkpoint(net.state_dict(), net.config.to_dict(), {}, 4, 1, 0.1, node_order=["b", "a"])
        assert ck.build_network().node_order == ["b", "a"]
        assert ck.build_network(node_order=("b", "a")).node_order == ["b", "a"]
        with pytest.raises(CheckpointError, match=r"node_order: .*\['a', 'b'\].*\['b', 'a'\]"):
            ck.build_network(node_order=["a", "b"])
        ck.node_order = None  # written before station names were stored: any names
        assert ck.build_network(node_order=["a", "b"]).node_order == ["a", "b"]
        for order in (["a"], ["a", "b", "c"], []):  # but one per station
            with pytest.raises(CheckpointError, match=f"^node_order: {len(order)} names for 2"):
                ck.build_network(node_order=order)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("input_proj.bias"), "params.input_proj.bias: missing"),
            (lambda p: p.__setitem__("extra", np.zeros(1)), "params.extra: not a parameter"),
            (lambda p: p.__setitem__("head.dense.bias", np.zeros(5)),
             r"params.head.dense.bias: shape \(5,\), the model's is \(2,\)"),
            (lambda p: p["input_proj.weight"].__setitem__((0, 0), np.inf),
             "params.input_proj.weight: non-finite value"),
        ],
        ids=["missing", "unknown", "shape", "non-finite"],
    )
    def test_build_network_names_one_bad_parameter(self, edit, message):
        net = Network(tiny_config(), seed=4)
        ck = Checkpoint(net.state_dict(), net.config.to_dict(), {}, 4, 1, 0.1)
        edit(ck.params)
        with pytest.raises(CheckpointError, match=f"^{message}"):
            ck.build_network()


class TestTrainLoop:
    def test_runs_and_logs(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0)
        res = train(
            net, ds, ds, scaler, tmp_path / "ck.bin", epochs=3, batch_size=16, seed=0
        )
        assert len(res.log) == 3
        assert [row["epoch"] for row in res.log] == [1, 2, 3]
        assert math.isfinite(res.checkpoint.val_loss)
        assert res.checkpoint.epoch <= 3

    def test_checkpoint_stores_station_names(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0, node_order=["west", "east"])
        res = train(net, ds, ds, scaler, tmp_path / "ck.bin", epochs=1, batch_size=16)
        assert res.checkpoint.node_order == ["west", "east"]

    def test_checkpoint_is_best_epoch(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0)
        res = train(
            net, ds, ds, scaler, tmp_path / "ck.bin", epochs=4, batch_size=16, seed=0
        )
        best_logged = min(row["val_loss"] for row in res.log)
        assert res.checkpoint.val_loss == pytest.approx(best_logged)

    def test_zero_epochs_do_not_return_an_earlier_runs_checkpoint(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        path = tmp_path / "ck.bin"
        train(Network(tiny_config(), seed=0), ds, ds, scaler, path, epochs=1, batch_size=16)
        with pytest.raises(ConfigError, match=r"^epochs: must be an int >= 1, got 0$"):
            train(Network(tiny_config(), seed=5), ds, ds, scaler, path, epochs=0, batch_size=16)

    @pytest.mark.parametrize(
        "setting, reason",
        [
            ({"lr": -1.0}, "must be a positive finite number, got -1.0"),
            ({"lr": 0.0}, "must be a positive finite number, got 0.0"),
            ({"factor": 1.5}, r"must be a number in \(0, 1\), got 1.5"),
            ({"patience": 0}, "must be an int >= 1, got 0"),
        ],
    )
    def test_bad_recipe_setting_named_before_training(self, tmp_path, rng, setting, reason):
        ds, scaler = tiny_dataset(rng)
        (key,) = setting
        with pytest.raises(ConfigError, match=f"^{key}: {reason}$"):
            train(Network(tiny_config(), seed=0), ds, ds, scaler, tmp_path / "ck.bin", epochs=2, **setting)
        assert list(tmp_path.iterdir()) == []

    def test_cut_restores_the_best_weights(self, tmp_path, rng):
        """After every learning-rate cut the network holds, bitwise, the
        weights of the last epoch that improved the validation loss."""
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0)
        snapshots = []
        res = train(
            net, ds, ds, scaler, tmp_path / "ck.bin", lr=0.05, epochs=8, batch_size=16, patience=1,
            log_fn=lambda row: snapshots.append(net.state_dict()),
        )
        assert sum(row["reload"] for row in res.log) >= 2
        best_loss, best = math.inf, None
        for row, snapshot in zip(res.log, snapshots):
            if row["val_loss"] < best_loss:
                best_loss, best = row["val_loss"], snapshot
            elif row["reload"]:
                assert snapshot.keys() == best.keys()
                for name in best:
                    assert snapshot[name].tobytes() == best[name].tobytes(), name

    def test_returns_the_checkpoint_it_saved_without_reading_it(self, tmp_path, rng, monkeypatch):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0, node_order=["west", "east"])
        run_config = {"seed": 0, "nested": {"names": ["a"]}}
        path = tmp_path / "ck.bin"

        def no_load(cls, path):
            raise AssertionError(f"train() read {path}")

        with monkeypatch.context() as patch:
            patch.setattr(Checkpoint, "load", classmethod(no_load))
            res = train(
                net, ds, ds, scaler, path, lr=0.05, epochs=8, batch_size=16, patience=1,
                run_config=run_config,
            )
        assert sum(row["reload"] for row in res.log) >= 2
        back = Checkpoint.load(path)
        kept = res.checkpoint
        assert kept.params.keys() == back.params.keys()
        for name in back.params:
            assert kept.params[name].dtype == back.params[name].dtype
            assert kept.params[name].tobytes() == back.params[name].tobytes(), name
        for field in dataclasses.fields(Checkpoint):
            if field.name != "params":
                assert getattr(kept, field.name) == getattr(back, field.name), field.name
        # the caller's dict and the network's station list stay theirs
        run_config["seed"] = 9
        run_config["nested"]["names"].append("b")
        net.node_order[0] = "north"
        assert kept.run_config == back.run_config == {"seed": 0, "nested": {"names": ["a"]}}
        assert kept.node_order == back.node_order == ["west", "east"]

    def test_empty_train_split_rejected(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        empty = dataclasses.replace(ds, inputs=ds.inputs[:0], targets=ds.targets[:0])
        net = Network(tiny_config(), seed=0)
        with pytest.raises(TrainingError):
            train(net, empty, ds, scaler, tmp_path / "ck.bin", epochs=1)

    def test_non_finite_validation_loss_names_epoch(self, tmp_path, rng):
        # non-finite targets; test_non_finite_validation_inputs_name_epoch
        # covers non-finite inputs
        ds, scaler = tiny_dataset(rng)
        val = dataclasses.replace(ds, targets=np.full(ds.targets.shape, np.inf))
        net = Network(tiny_config(), seed=0)
        with pytest.raises(TrainingError, match="validation loss inf at epoch 1"):
            train(net, ds, val, scaler, tmp_path / "ck.bin", epochs=4, batch_size=16, seed=0)

    def test_non_finite_validation_inputs_name_epoch(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        inputs = ds.inputs.copy()
        inputs[0, WIND_SPEED, 0, -1] = np.nan
        val = dataclasses.replace(ds, inputs=inputs)
        net = Network(tiny_config(), seed=0)
        with pytest.raises(TrainingError, match="validation loss nan at epoch 1"):
            train(net, ds, val, scaler, tmp_path / "ck.bin", epochs=4, batch_size=16, seed=0)

    @pytest.mark.parametrize("batch_size", [16, 64])
    def test_diverging_forward_names_epoch(self, tmp_path, rng, batch_size):
        """A huge lr makes the adjacency's embeddings non-finite after the
        first Adam step, so the next forward's softmax_rows raises: the
        step forward with two batches per epoch, validation's forward with
        one (31 windows)."""
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(num_blocks=2, branch_specs=[[(2, 1)], [(2, 1)]]), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the diverged GEMMs
            with pytest.raises(TrainingError, match="diverged at epoch 1: softmax_rows requires finite input"):
                train(net, ds, ds, scaler, tmp_path / "ck.bin", lr=1e300, epochs=3, batch_size=batch_size)

    def test_determinism(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)

        def run(tag):
            net = Network(tiny_config(), seed=3)
            res = train(
                net, ds, ds, scaler, tmp_path / f"{tag}.bin", epochs=2, batch_size=16, seed=1
            )
            return res.checkpoint.params

        a, b = run("a"), run("b")
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.parametrize(
        "config",
        [tiny_config(), tiny_config(variant=MULTI_SCALE, branch_specs=[[(2, 1), (3, 2)]])],
        ids=["single_scale", "multi_scale"],
    )
    def test_window_views_train_like_contiguous_copies(self, tmp_path, rng, config):
        ds, scaler = tiny_dataset(rng)
        assert not ds.inputs.flags.writeable  # a view over the normalised series
        copied = dataclasses.replace(ds, inputs=np.ascontiguousarray(ds.inputs))

        def run(dataset, tag):
            path = tmp_path / f"{tag}.bin"
            net = Network(config, seed=3)
            train(net, dataset, dataset, scaler, path, epochs=2, batch_size=16, seed=1)
            return path.read_bytes()

        assert run(ds, "view") == run(copied, "copy")


class TestOverfit:
    def test_memorizes_small_batch(self, rng):
        net = Network(tiny_config(), seed=0)
        x = rng.normal(size=(4, 4, 2, 8))
        t = rng.uniform(0.2, 0.8, size=(4, 2))
        steps, mse = overfit(net, x, t, max_steps=2000, lr=0.01, tol=1e-3)
        assert mse < 1e-3
        assert steps < 2000


def ramp_dataset(horizon):
    length = 30
    raw = np.zeros((length, 4, 2))
    raw[:, WIND_SPEED, :] = np.arange(length)[:, None]
    raw[:, 0, :] = 1.0  # non-wind features constant
    scaler = MinMaxScaler.fit(raw)
    ds = make_windows(scaler.apply(raw), raw, 4, horizon, [0, 1])
    return ds, scaler


class TestMetricsAndBaseline:
    def test_persistence_on_unit_ramp(self):
        # wind speed rises 1 m/s per hour: persistence at horizon T is off
        # by exactly T, so MAE = 6 and MSE = 36
        ds, scaler = ramp_dataset(horizon=6)
        m = persistence_baseline(ds, scaler)
        assert m.mae == pytest.approx(6.0, abs=1e-9)
        assert m.mse == pytest.approx(36.0, abs=1e-9)
        assert m.horizon == 6
        for node_metrics in m.per_node.values():
            assert node_metrics["mae"] == pytest.approx(6.0, abs=1e-9)

    def test_persistence_horizon_one(self):
        ds, scaler = ramp_dataset(horizon=1)
        assert persistence_baseline(ds, scaler).mae == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_in_physical_units(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0)
        ck = Checkpoint(net.state_dict(), net.config.to_dict(), scaler.state(), 0, 1, 0.1)
        m = evaluate(ck, ds, scaler)
        # independent recomputation from raw predictions
        pred = predict_physical(ck.build_network(node_order=ds.node_order), ds, scaler)
        assert m.mae == pytest.approx(float(np.abs(pred - ds.targets).mean()))
        assert m.mse == pytest.approx(float(((pred - ds.targets) ** 2).mean()))
        assert set(m.per_node) == {ds.node_order[0], ds.node_order[1]}

    def test_evaluate_is_pure(self, tmp_path, rng):
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(), seed=0)
        ck = Checkpoint(net.state_dict(), net.config.to_dict(), scaler.state(), 0, 1, 0.1)
        m1 = evaluate(ck, ds, scaler)
        m2 = evaluate(ck, ds, scaler)
        assert (m1.mae, m1.mse) == (m2.mae, m2.mse)

    def test_predict_builds_no_tape(self, rng):
        """predict_physical on 64 windows of the criterion-5 config peaks at
        most at a third of one recording forward of the same batch."""
        cfg = ModelConfig(
            variant=MULTI_SCALE, num_blocks=4, residual_channels=16, skip_channels=32,
            head_channels=(32, 16), window=16, horizon=1, num_nodes=5,
            target_nodes=[0, 1, 2, 3, 4],
        )
        net = Network(cfg, seed=0)
        raw = rng.uniform(0, 20, size=(80, 4, 5))
        scaler = MinMaxScaler.fit(raw)
        ds = make_windows(scaler.apply(raw), raw, 16, 1, [0, 1, 2, 3, 4])
        assert len(ds) == 64

        def peak(fn):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            recording = peak(lambda: net.forward(ds.inputs))
            without_tape = peak(lambda: predict_physical(net, ds, scaler))
        finally:
            tracemalloc.stop()
        assert 3 * without_tape <= recording, (without_tape, recording)

    def test_predict_rejects_another_target_count(self, rng):
        """A network for one target on a dataset of two raises, instead of
        leaving the second column of its output uninitialised."""
        ds, scaler = tiny_dataset(rng)
        net = Network(tiny_config(target_nodes=[1]), seed=0)
        with pytest.raises(TrainingError, match="forecasts 1 target nodes, the dataset has 2"):
            predict_physical(net, ds, scaler)

    def test_scaler_mismatch_rejected(self, rng):
        ds, scaler = tiny_dataset(rng)
        other = MinMaxScaler.fit(rng.uniform(5, 9, size=(20, 4, 2)))
        net = Network(tiny_config(), seed=0)
        ck = Checkpoint(net.state_dict(), net.config.to_dict(), scaler.state(), 0, 1, 0.1)
        with pytest.raises(TrainingError, match="scaler"):
            evaluate(ck, ds, other)


class TestOneForecastPath:
    """forecast() and the one-call scaler maps against the per-station
    loops they replaced (tests/per_station.py), bit for bit: 300 windows,
    one batch of 256 and one of 44, on three target stations, one of which
    has a constant fitted wind-speed range. The rows-from-3 case reads
    strided views, as a split of a prepared series does."""

    @staticmethod
    def case(rng, rows):
        raw = rng.uniform(0, 20, size=(309, 4, 3))
        raw[:, WIND_SPEED, 2] = 4.5
        scaler = MinMaxScaler.fit(raw)
        ds = make_windows(scaler.apply(raw), raw, 8, 2, [0, 2, 1])
        ds = dataclasses.replace(ds, inputs=ds.inputs[rows], targets=ds.targets[rows])
        net = Network(tiny_config(num_nodes=3, target_nodes=[0, 2, 1]), seed=4)
        return net, ds, scaler

    @pytest.mark.parametrize("rows", [slice(None), slice(3, None)], ids=["all", "from-3"])
    def test_bitwise_the_per_station_loops(self, rng, rows):
        net, ds, scaler = self.case(rng, rows)
        norm = scaler.normalize_wind_speed(ds.targets, ds.target_nodes)
        reference = per_station.normalized_targets(ds, scaler)
        assert norm.tobytes() == reference.tobytes()
        assert np.all(norm[:, 1] == 0.5)
        loss = training._eval_loss(net, ds.inputs, norm)
        assert struct.pack("<d", loss) == struct.pack("<d", per_station.eval_loss(net, ds.inputs, norm))
        pred = predict_physical(net, ds, scaler)
        assert pred.tobytes() == per_station.predict_physical(net, ds, scaler).tobytes()
        baseline = training._metrics(per_station.persistence_forecast(ds, scaler), ds)
        assert persistence_baseline(ds, scaler) == baseline

    def test_no_windows(self, rng):
        net, ds, scaler = self.case(rng, slice(0, 0))
        assert forecast(net, ds.inputs).shape == (0, 3)
        assert predict_physical(net, ds, scaler).shape == (0, 3)


def criterion_5_config():
    return ModelConfig(
        variant=MULTI_SCALE, num_blocks=4, residual_channels=16, skip_channels=32,
        head_channels=(32, 16), window=16, horizon=1, num_nodes=5,
        target_nodes=[0, 1, 2, 3, 4],
    )


class TestConsumedTape:
    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    def test_gradients_bitwise_equal_to_keeping_the_tape(self, rng, variant):
        """Paper size, B=2, two consecutive Adam steps."""
        xs = rng.normal(size=(2, 2, 4, 5, 48))
        ts = rng.normal(size=(2, 2, 3))
        nets = [Network(ModelConfig(variant=variant), seed=0) for _ in range(2)]
        opts = [AdamOptimizer(net.parameters(), lr=0.001) for net in nets]
        for x, t in zip(xs, ts):
            grads = []
            for net, opt, backward in zip(nets, opts, (ad.backward, backward_keeping_tape)):
                net.zero_grad()
                backward(ad.mse_loss(net.forward(x), t))
                grads.append(
                    {n: None if p.grad is None else p.grad.tobytes() for n, p in net.parameters()}
                )
                opt.step()
            assert grads[0] == grads[1]

    def test_train_steps_hold_one_graph_at_a_time(self, rng):
        """Criterion-5 config, B=64: after backward only the parameter
        gradients stay live, and a second step peaks no higher than the first."""
        net = Network(criterion_5_config(), seed=0)
        opt = AdamOptimizer(net.parameters(), lr=0.001)
        x = rng.normal(size=(64, 4, 5, 16))
        t = rng.normal(size=(64, 5))
        peaks = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for step in range(2):
                tracemalloc.reset_peak()
                net.zero_grad()
                loss = ad.mse_loss(net.forward(x), t)  # as in train(): loss outlives the step
                ad.backward(loss)
                if step == 0:
                    live = tracemalloc.get_traced_memory()[0] - start
                opt.step()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.grad.nbytes for _, p in net.parameters() if p.grad is not None)
        assert live <= grad_bytes + 2**20, (live, grad_bytes)
        assert peaks[1] <= 1.15 * peaks[0], peaks


SIZES = {
    "paper": {},
    "criterion_5": dict(residual_channels=16, skip_channels=32, head_channels=(32, 16), window=16,
                        horizon=1, target_nodes=[0, 1, 2, 3, 4]),
}


@pytest.fixture
def one_blas_thread():
    """One OpenBLAS thread during the test, as the benchmark runs."""
    before = ad.blas_threads()
    ad.blas_threads(1)
    yield
    if before is not None:
        ad.blas_threads(before)


_LIFECYCLE = """
import json, sys, threading
import numpy as np
from mswavenet import autodiff as ad
from mswavenet.model import ModelConfig, Network
from mswavenet.training import forecast

seen = {}  # every lane thread alive after a step, kept so that no id is reused

def lane_threads():
    lanes = [t for t in threading.enumerate() if t.name.startswith("autodiff-lane")]
    seen.update((id(t), t) for t in lanes)
    return len(lanes)

def step(net):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 4, 5, net.config.window))
    ad.backward(ad.mse_loss(net.forward(x), rng.normal(size=(64, len(net.config.target_nodes)))))

small, paper = Network(ModelConfig(**json.loads(sys.argv[1])), seed=0), Network(ModelConfig(), seed=0)
step(small)
forecast(paper, np.zeros((64, 4, 5, 48)))
paper.forward(np.zeros((1, 4, 5, 48)))
counts = [lane_threads(), "concurrent.futures" in sys.modules]
for _ in range(4):
    step(paper)
    counts.append(lane_threads())
print(json.dumps(counts + [len(seen)]))
"""


class TestTwoLanes:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="two lanes need at least 2 CPUs")
    def test_lane_lifecycle(self):
        """In a fresh process at one BLAS thread, a criterion-5-size step, a
        no_grad forecast and a recorded batch-1 forecast start no lane
        thread and import no concurrent.futures; the first paper-size B=64
        step starts one lane thread, and the next three reuse that thread."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
        out = subprocess.run([sys.executable, "-c", _LIFECYCLE, json.dumps(SIZES["criterion_5"])],
                             env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == [0, False, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("variant", [MULTI_SCALE, SINGLE_SCALE])
    @pytest.mark.parametrize("size", list(SIZES))
    def test_bitwise_one_lane(self, tmp_path, monkeypatch, one_blas_thread, size, variant):
        """Forcing the second lane on or off changes no bit of the forward,
        of any parameter or input gradient at B=64, or of the checkpoint of
        a 3-step train(). At paper size the batch runs in two halves."""
        config = ModelConfig(variant=variant, **SIZES[size])
        rng = np.random.default_rng(0)
        x_val = rng.normal(size=(64, 4, 5, config.window))
        t_val = rng.normal(size=(64, len(config.target_nodes)))
        lead = config.window + config.horizon - 1
        raw = rng.uniform(0, 20, size=(3 * 64 + 64 + 2 * lead, 4, 5))
        scaler = MinMaxScaler.fit(raw)
        train_ds, val_ds = (
            make_windows(scaler.apply(part), part, config.window, config.horizon, config.target_nodes)
            for part in (raw[: 3 * 64 + lead], raw[3 * 64 + lead :])
        )
        results = []
        for two in (False, True):
            monkeypatch.setattr(ad, "_second_lane", lambda: two)
            net = Network(config, seed=3)
            x = Variable(x_val)
            out = net.forward(x)
            ad.backward(ad.mse_loss(out, t_val))
            grads = [None if p.grad is None else p.grad.tobytes() for _, p in net.parameters()]
            path = tmp_path / f"{two}.bin"
            train(Network(config, seed=3), train_ds, val_ds, scaler, path, epochs=1, batch_size=64, seed=1)
            results.append([out.value.tobytes(), x.grad.tobytes(), grads, path.read_bytes()])
        assert results[0] == results[1]


class TestMallocPolicy:
    def test_set_once_per_process(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(training, "_malloc_policy_set", False)
        monkeypatch.setattr(training.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: Libc())
        assert training.set_malloc_policy()
        assert not training.set_malloc_policy()
        assert calls == [(-3, 256 << 20), (-1, 1 << 30)]

    def test_no_op_off_glibc(self, monkeypatch):
        def no_libc(name):
            raise AssertionError("libc loaded off glibc")

        monkeypatch.setattr(training, "_malloc_policy_set", False)
        monkeypatch.setattr(training.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(training.ctypes, "CDLL", no_libc)
        assert not training.set_malloc_policy()
        assert not training._malloc_policy_set

import json
import re
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mswavenet.cli import main
from mswavenet.config import DEFAULTS, ConfigError, RunConfig, load_run_config
from mswavenet.model import ModelConfig
from mswavenet.training import Checkpoint

NODES = "node0,node1,node2"
TARGETS = "node0,node2"
COMMANDS = ["eval", "predict", "export-adjacency", "dump-plot-data"]  # the checkpoint readers

_values = st.one_of(
    st.text(max_size=8),
    st.integers().map(str),
    st.floats().map(repr),
    st.from_regex(r"-?\d{1,5}(-\d{0,5})?(,\d{1,5})?", fullmatch=True),
)
_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(DEFAULTS)), _values).map(" = ".join),
    st.text(max_size=12),
)
_config_files = st.one_of(
    st.binary(max_size=64),
    st.lists(_lines, max_size=6).map(lambda lines: "\n".join(lines).encode()),
)
# a JSON value in place of a typed one, as a checkpoint's run_config can hold
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic stations generated once, then one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    runs = root / "runs"
    config = root / "run.conf"
    config.write_text(
        "# small end-to-end run\n"
        f"data.dir = {data}\n"
        f"out.dir = {runs}\n"
        f"data.node_order = {NODES}\n"
        f"data.target_nodes = {TARGETS}\n"
        "split.train_years = 2000\n"
        "split.val_years = 2001\n"
        "split.test_years = 2002\n"
        "model.variant = single_scale\n"
        "model.num_blocks = 1\n"
        "model.residual_channels = 4\n"
        "model.skip_channels = 4\n"
        "model.embedding_width = 3\n"
        "model.window = 8\n"
        "train.epochs = 2\n"
        "train.batch_size = 256\n"
        "synth.nodes = 3\n"
        "synth.length = 20000\n"
        "synth.sigma = 0.3\n"
    )
    argv = ["--config", str(config)]
    assert main(argv + ["--set", f"out.dir={data}", "gen-synthetic"]) == 0
    assert main(argv + ["train"]) == 0
    return {
        "argv": argv,
        "data": data,
        "runs": runs,
        "checkpoint": runs / "checkpoint_h6.bin",
    }


class TestGenSynthetic:
    def test_station_files_and_truth(self, workdir):
        data = workdir["data"]
        for j in range(3):
            f = data / f"node{j}.csv"
            assert f.exists()
            header = f.read_text().splitlines()[0]
            assert header == "timestamp,temperature,pressure,wind_speed,wind_direction"
        truth = json.loads((data / "truth.json").read_text())
        assert truth["node_order"] == NODES.split(",")
        np.testing.assert_allclose(
            np.array(truth["true_adjacency"]).sum(axis=1), 1.0
        )


class TestTrain:
    def test_artifacts_exist(self, workdir):
        assert workdir["checkpoint"].exists()
        assert (workdir["runs"] / "train_log_h6.txt").exists()

    def test_log_echoes_config_and_epochs(self, workdir):
        text = (workdir["runs"] / "train_log_h6.txt").read_text()
        assert "# seed = 0" in text
        assert "# model.window = 8" in text
        assert "epoch train_loss val_loss lr reload" in text
        data_rows = [
            line for line in text.splitlines() if re.match(r"^\d+ ", line)
        ]
        assert len(data_rows) == 2


class TestEval:
    def test_metrics_file(self, workdir, capfd):
        rc = main(workdir["argv"] + ["eval", str(workdir["checkpoint"])])
        assert rc == 0
        text = (workdir["runs"] / "metrics_h6.txt").read_text()
        assert re.search(r"model overall mae=[\d.]+ mse=[\d.]+ horizon=6", text)
        assert re.search(r"persistence overall mae=", text)
        for node in TARGETS.split(","):
            assert f"model node={node} " in text

    def test_missing_checkpoint_exits_one(self, workdir, capfd):
        rc = main(workdir["argv"] + ["eval", str(workdir["runs"] / "nope.bin")])
        assert rc == 1


class TestPredict:
    def test_one_line_per_target(self, workdir, capfd):
        rc = main(workdir["argv"] + ["predict", str(workdir["checkpoint"])])
        assert rc == 0
        out = capfd.readouterr().out.strip().splitlines()
        assert len(out) == 2
        for line, node in zip(out, TARGETS.split(",")):
            name, stamp, value = line.split()
            assert name == node
            assert stamp.startswith("2002-")  # one horizon past the last hour
            float(value)

    def test_too_little_history_fails(self, workdir, tmp_path, capfd):
        short = tmp_path / "short"
        short.mkdir()
        for j in range(3):
            src = (workdir["data"] / f"node{j}.csv").read_text().splitlines()
            (short / f"node{j}.csv").write_text("\n".join(src[:5]) + "\n")
        rc = main(
            workdir["argv"]
            + ["--set", f"data.dir={short}", "predict", str(workdir["checkpoint"])]
        )
        assert rc == 1
        assert "error" in capfd.readouterr().err


class TestExportAdjacency:
    def test_csv_written(self, workdir, tmp_path, capfd):
        out = tmp_path / "adj.csv"
        rc = main(
            workdir["argv"]
            + ["export-adjacency", str(workdir["checkpoint"]), "--output", str(out)]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "node," + NODES
        assert len(rows) == 4
        values = np.array(
            [[float(v) for v in row.split(",")[1:]] for row in rows[1:]]
        )
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-9)


class TestDumpPlotData:
    def test_columns_consistent_with_metrics(self, workdir, capfd):
        rc = main(workdir["argv"] + ["dump-plot-data", str(workdir["checkpoint"])])
        assert rc == 0
        assert (workdir["runs"] / "adjacency_h6.csv").exists()
        # recompute MAE from the dumped full-precision columns and compare
        # against the rounded value in the metrics file
        metrics = (workdir["runs"] / "metrics_h6.txt").read_text()
        for node in TARGETS.split(","):
            path = workdir["runs"] / f"plot_h6_{node}.txt"
            rows = [
                line.split()
                for line in path.read_text().splitlines()
                if not line.startswith("#") and not line.startswith("timestamp")
            ]
            actual = np.array([float(r[1]) for r in rows])
            pred = np.array([float(r[2]) for r in rows])
            mae = float(np.abs(actual - pred).mean())
            m = re.search(rf"model node={node} mae=([\d.]+)", metrics)
            assert abs(mae - float(m.group(1))) < 5e-7


class TestBadInputExitsOne:
    @pytest.mark.parametrize("command", ["eval", "predict", "export-adjacency", "dump-plot-data"])
    def test_corrupt_checkpoint_named(self, workdir, tmp_path, capfd, command):
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(b"STGW1garbage")
        rc = main(workdir["argv"] + [command, str(bad)])
        assert rc == 1
        assert str(bad) in capfd.readouterr().err

    @staticmethod
    def train_on_edited_line_4(workdir, tmp_path, edit):
        """Exit code of train on copies of the stations with line 4 of
        node1.csv replaced by edit(its fields)."""
        bad = tmp_path / "bad"
        bad.mkdir()
        for j in range(3):
            lines = (workdir["data"] / f"node{j}.csv").read_bytes().splitlines()
            if j == 1:
                lines[3] = b",".join(edit(lines[3].split(b",")))
            (bad / f"node{j}.csv").write_bytes(b"\n".join(lines) + b"\n")
        return main(workdir["argv"] + ["--set", f"data.dir={bad}", "train"])

    def test_non_finite_csv_value_named(self, workdir, tmp_path, capfd):
        rc = self.train_on_edited_line_4(
            workdir, tmp_path, lambda fields: fields[:3] + [b"nan"] + fields[4:]  # wind_speed
        )
        assert rc == 1
        assert "node1.csv: line 4: wind_speed" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda fields: fields[:1] + [b"\xff" + fields[1]] + fields[2:], "not UTF-8"),
            (lambda fields: [b"0001-01-01T00:00:00+01:00"] + fields[1:], "bad timestamp"),
        ],
        ids=["not-utf8", "overflowing-timestamp"],
    )
    def test_bad_csv_line_named(self, workdir, tmp_path, capfd, edit, reason):
        rc = self.train_on_edited_line_4(workdir, tmp_path, edit)
        assert rc == 1
        assert f"node1.csv: line 4: {reason}" in capfd.readouterr().err

    def test_parameter_listed_twice_exits_one(self, workdir, tmp_path, capfd):
        """A first copy of adjacency.e1, all 7.0, ahead of the trained one:
        every command exits 1 naming the file and the parameter, instead of
        loading the last copy."""
        blob = workdir["checkpoint"].read_bytes()
        (count,) = struct.unpack_from("<I", blob, 5)
        e1 = Checkpoint.load(workdir["checkpoint"]).params["adjacency.e1"]
        name = b"adjacency.e1"
        entry = struct.pack(f"<I{len(name)}sI2I", len(name), name, 2, *e1.shape)
        entry += np.full(e1.shape, 7.0).astype("<f8").tobytes()
        bad = tmp_path / "twice.bin"
        bad.write_bytes(blob[:5] + struct.pack("<I", count + 1) + entry + blob[9:])
        for command in COMMANDS:
            rc = main(workdir["argv"] + [command, str(bad)])
            err = capfd.readouterr().err
            assert (rc, f"{bad}: params.adjacency.e1: listed twice" in err) == (1, True), command

    def test_checkpoint_config_not_a_model_config(self, workdir, tmp_path, capfd):
        ckpt = Checkpoint.load(workdir["checkpoint"])
        ckpt.config = {}
        bad = tmp_path / "no_model.bin"
        ckpt.save(bad)
        rc = main(workdir["argv"] + ["export-adjacency", str(bad)])
        assert rc == 1
        assert f"{bad}: trailer config is not a model config" in capfd.readouterr().err

    @staticmethod
    def checkpoint_with(workdir, tmp_path, part, key, value):
        """Path of a copy of the trained checkpoint with ckpt.<part>[key] = value."""
        ckpt = Checkpoint.load(workdir["checkpoint"])
        getattr(ckpt, part)[key] = value
        bad = tmp_path / "edited.bin"
        ckpt.save(bad)
        return bad

    @pytest.mark.parametrize(
        "key, value",
        [
            ("residual_channels", "x"), ("residual_channels", 0), ("window", 0),
            ("head_channels", ["a"]), ("variant", "zzz"), ("target_nodes", [5]),
            ("horizon", True),
        ],
    )
    def test_checkpoint_model_config_value_named(self, workdir, tmp_path, capfd, key, value):
        bad = self.checkpoint_with(workdir, tmp_path, "config", key, value)
        rc = main(workdir["argv"] + ["export-adjacency", str(bad)])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"{bad}: trailer config is not a model config" in err
        assert f"{key}: " in err

    @pytest.mark.parametrize(
        "command, key, value, reason",
        [(command, "seed", -1, "must be a non-negative int") for command in COMMANDS]
        + [
            ("export-adjacency", "seed", True, "must be an int"),
            ("eval", "epoch", False, "must be a non-negative int"),
            ("predict", "epoch", -1, "must be a non-negative int"),
            ("dump-plot-data", "val_loss", float("nan"), "must be a finite number"),
            ("eval", "val_loss", True, "must be a finite number"),
        ],
    )
    def test_checkpoint_trailer_number_named(
        self, workdir, tmp_path, capfd, command, key, value, reason
    ):
        ckpt = Checkpoint.load(workdir["checkpoint"])
        setattr(ckpt, key, value)
        bad = tmp_path / "edited.bin"
        ckpt.save(bad)
        rc = main(workdir["argv"] + [command, str(bad)])
        assert rc == 1
        assert f"{bad}: {key}: {reason}, got {value!r}" in capfd.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("train.lr", "x"), ("model.window", 2.5), ("seed", None)]
    )
    def test_checkpoint_run_config_value_named(self, workdir, tmp_path, capfd, key, value):
        bad = self.checkpoint_with(workdir, tmp_path, "run_config", key, value)
        rc = main(workdir["argv"] + ["export-adjacency", str(bad)])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"{bad}: run_config" in err
        assert f"{key}: " in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_config_must_describe_the_model(self, workdir, tmp_path, capfd, command):
        """A valid run_config whose model.window differs from the stored model's."""
        bad = self.checkpoint_with(workdir, tmp_path, "run_config", "model.window", 16)
        rc = main(workdir["argv"] + [command, str(bad)])
        assert rc == 1
        err = capfd.readouterr().err
        assert f"{bad}: run_config does not describe the checkpoint's model" in err
        assert "model.window is 16 in run_config, 8 in config" in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda ck: ck.params.pop("adjacency.e1"), "params.adjacency.e1"),
            (lambda ck: ck.params["adjacency.e1"].__setitem__((0, 0), np.nan),
             "params.adjacency.e1"),
            (lambda ck: ck.params.__setitem__("block0.skip.bias", np.zeros(1)),
             "params.block0.skip.bias"),
            (lambda ck: ck.scaler["mins"][2].__setitem__(0, float("nan")), "scaler.mins"),
            (lambda ck: ck.scaler["mins"][0].__setitem__(1, "x"), "scaler.mins"),
            (lambda ck: ck.scaler["maxs"].pop(), "scaler.maxs"),
            (lambda ck: ck.scaler.clear(), "scaler keys"),
        ],
        ids=["param-dropped", "param-nan", "param-shape", "scaler-nan", "scaler-text",
             "scaler-rows", "scaler-empty"],
    )
    @pytest.mark.parametrize("command", COMMANDS)
    def test_checkpoint_parts_checked(self, workdir, tmp_path, capfd, command, edit, key):
        ckpt = Checkpoint.load(workdir["checkpoint"])
        edit(ckpt)
        bad = tmp_path / "edited.bin"
        ckpt.save(bad)
        rc = main(workdir["argv"] + [command, str(bad)])
        assert rc == 1
        assert f"{bad}: {key}" in capfd.readouterr().err

    def test_eval_rejects_another_scaler(self, workdir, tmp_path, capfd):
        ckpt = Checkpoint.load(workdir["checkpoint"])
        ckpt.scaler["mins"][0][0] -= 1.0
        bad = tmp_path / "edited.bin"
        ckpt.save(bad)
        rc = main(workdir["argv"] + ["eval", str(bad)])
        assert rc == 1
        assert f"{bad}: scaler differs from the one fitted" in capfd.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "dump-plot-data"])
    def test_rejects_data_with_another_scaler(self, workdir, tmp_path, capfd, command):
        """node0.csv and node2.csv swapped: the stations keep their names,
        but the scaler fitted on them is not the checkpoint's."""
        swapped = tmp_path / "swapped"
        swapped.mkdir()
        for j, k in enumerate((2, 1, 0)):
            shutil.copy(workdir["data"] / f"node{k}.csv", swapped / f"node{j}.csv")
        out_dir = tmp_path / "out"
        rc = main(
            workdir["argv"]
            + ["--set", f"data.dir={swapped}", "--set", f"out.dir={out_dir}", command,
               str(workdir["checkpoint"])]
        )
        assert rc == 1
        err = capfd.readouterr().err
        assert f"{workdir['checkpoint']}: scaler differs from the one fitted" in err
        assert not out_dir.exists()

    @staticmethod
    def library_checkpoint(workdir, tmp_path):
        """Path of a copy of the trained checkpoint without a run_config,
        as train() writes it when called as a library."""
        ckpt = Checkpoint.load(workdir["checkpoint"])
        ckpt.run_config = None
        path = tmp_path / "library.bin"
        ckpt.save(path)
        return path

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stations_must_match_the_checkpoint(self, workdir, tmp_path, capfd, command):
        path = self.library_checkpoint(workdir, tmp_path)
        rc = main(
            workdir["argv"]
            + ["--set", "data.node_order=node2,node1,node0", "--set", f"out.dir={tmp_path}/out",
               command, str(path)]
        )
        assert rc == 1
        assert f"{path}: node_order: " in capfd.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "settings, key",
        [
            (["data.target_nodes=node1"], "data.target_nodes"),
            (["model.window=12"], "model.window"),
            (["model.horizon=12"], "model.horizon"),
            (["data.node_order=node0,node2", "data.target_nodes=node0,node2"], "data.node_order"),
        ],
        ids=["targets", "window", "horizon", "stations"],
    )
    def test_command_config_must_fit_the_model(
        self, workdir, tmp_path, capfd, command, settings, key
    ):
        """A checkpoint with neither run_config nor node_order runs with the
        command's config, which must give the model's stations, window,
        horizon and target nodes."""
        ckpt = Checkpoint.load(self.library_checkpoint(workdir, tmp_path))
        ckpt.node_order = None
        path = tmp_path / "bare.bin"
        ckpt.save(path)
        overrides = [a for setting in settings for a in ("--set", setting)]
        rc = main(
            workdir["argv"] + overrides + ["--set", f"out.dir={tmp_path}/out", command, str(path)]
        )
        assert rc == 1
        assert f"{path}: {key} gives " in capfd.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "dump-plot-data"])
    def test_empty_test_split_exits_one(self, workdir, tmp_path, capfd, command):
        path = self.library_checkpoint(workdir, tmp_path)
        rc = main(
            workdir["argv"]
            + ["--set", "split.test_years=", "--set", f"out.dir={tmp_path}/out", command,
               str(path)]
        )
        assert rc == 1
        assert "split.test_years: " in capfd.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        kind=st.sampled_from(
            ["param-value", "param-drop", "param-shape", "scaler-value", "scaler-swap",
             "scaler-drop"]
        ),
        pick=st.integers(0, 2**16),
        entry=st.integers(0, 2**16),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_mutated_checkpoint_exits_one(self, workdir, tmp_path, capfd, kind, pick, entry, value):
        """One part of the trained checkpoint mutated: every command that
        reads it exits 1 naming its path."""
        ckpt = Checkpoint.load(workdir["checkpoint"])
        names = sorted(ckpt.params)
        name = names[pick % len(names)]
        mins, maxs = (np.array(ckpt.scaler[k]) for k in ("mins", "maxs"))
        if kind == "param-value":
            ckpt.params[name].flat[entry % ckpt.params[name].size] = value
        elif kind == "param-drop":
            del ckpt.params[name]
        elif kind == "param-shape":
            ckpt.params[name] = np.append(ckpt.params[name].ravel(), 0.0)
        elif kind == "scaler-drop":
            del ckpt.scaler[("mins", "maxs")[pick % 2]]
        else:
            if kind == "scaler-value":
                arr = (mins, maxs)[pick % 2]
                arr.flat[entry % arr.size] = value
            else:  # swap one pair whose max is above its min
                i = np.flatnonzero(maxs > mins)[entry % np.count_nonzero(maxs > mins)]
                mins.flat[i], maxs.flat[i] = maxs.flat[i], mins.flat[i]
            ckpt.scaler = {"mins": mins.tolist(), "maxs": maxs.tolist()}
        bad = tmp_path / "mutated.bin"
        ckpt.save(bad)
        for command in COMMANDS:
            rc = main(workdir["argv"] + [command, str(bad)])
            err = capfd.readouterr().err
            assert (rc, str(bad) in err) == (1, True), (command, kind, err)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(key=st.sampled_from(sorted(DEFAULTS)), value=_json_values)
    @example(key="split.train_years", value="")
    def test_mutated_run_config_exits_zero_or_one(self, workdir, tmp_path, capfd, key, value):
        """One run_config key of the trained checkpoint set to a JSON value:
        every command exits 0 with finite output, or exits 1 naming the
        checkpoint's path or the key. It never exits 2."""
        ckpt = Checkpoint.load(workdir["checkpoint"])
        ckpt.run_config[key] = value
        bad = tmp_path / "mutated.bin"
        ckpt.save(bad)
        for command in COMMANDS:
            out_dir = tmp_path / command
            shutil.rmtree(out_dir, ignore_errors=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # horizons, empty splits
                rc = main(workdir["argv"] + ["--set", f"out.dir={out_dir}", command, str(bad)])
            out, err = capfd.readouterr()
            if rc == 1:
                assert str(bad) in err or f"{key}:" in err, (command, err)
                continue
            assert rc == 0, (command, err)
            written = [f.read_text() for f in out_dir.iterdir()] if out_dir.exists() else []
            lines = [ln for text in [out, *written] for ln in text.splitlines()]
            numbers = [ln for ln in lines if not ln.startswith("#")]
            assert not re.search(r"\b(nan|inf)\b", "\n".join(numbers)), (command, numbers)

    def test_non_consecutive_split_years(self, workdir, capfd):
        years = ["split.train_years=2000,2002", "split.val_years=", "split.test_years=2001"]
        rc = main(workdir["argv"] + [a for y in years for a in ("--set", y)] + ["train"])
        assert rc == 1
        assert "train years [2000, 2002] are not one consecutive run" in capfd.readouterr().err


class TestConfigHandling:
    def test_unknown_key_exits_one(self, workdir, capfd):
        rc = main(workdir["argv"] + ["--set", "model.depth=9", "train"])
        assert rc == 1
        assert "unknown key" in capfd.readouterr().err

    @pytest.mark.parametrize("key", ["model.num_blocks", "model.residual_channels"])
    def test_zero_model_size_exits_one(self, workdir, capfd, key):
        rc = main(workdir["argv"] + ["--set", f"{key}=0", "train"])
        assert rc == 1
        assert key in capfd.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("train.lr=nan", "train.lr"),
            ("train.lr=inf", "train.lr"),
            ("train.lr=0", "train.lr: must be a positive finite number"),
            ("train.epochs=0", "train.epochs: must be an int >= 1"),
            ("train.batch_size=-1", "train.batch_size: must be an int >= 1"),
            ("train.factor=1", "train.factor: must be a number in (0, 1)"),
            ("train.patience=0", "train.patience: must be an int >= 1"),
            ("synth.sigma=nan", "synth.sigma"),
            ("synth.rho=2", "synth.rho"),
            ("synth.sigma=-1", "synth.sigma"),
            ("synth.length=0", "synth.length"),
            ("synth.nodes=0", "synth.nodes"),
            ("synth.nodes=32631", "synth.nodes"),  # its dense adjacency would take 8 GB
            ("synth.graph=star", "synth.graph"),
            ("seed=-1", "seed"),
            ("data.max_gap_hours=-2", "data.max_gap_hours"),
            ("data.target_nodes=", "data.target_nodes"),
            ("data.target_nodes=Esbjerg,Esbjerg", "data.target_nodes"),
            ("data.node_order=Esbjerg,Odense,Roskilde,Odense", "data.node_order"),
        ],
    )
    def test_bad_setting_exits_one_naming_key(self, tmp_path, capfd, setting, key):
        rc = main(
            ["--set", f"out.dir={tmp_path}", "--set", "synth.length=48", "--set", setting,
             "gen-synthetic"]
        )
        assert rc == 1
        assert key in capfd.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_max_gap_hours_at_least_zero(self):
        assert RunConfig({"data.max_gap_hours": 0})["data.max_gap_hours"] == 0
        with pytest.raises(ConfigError, match="data.max_gap_hours must be >= 0"):
            RunConfig({"data.max_gap_hours": -2})

    def test_synth_keys_checked_for_every_command(self, workdir, capfd):
        rc = main(workdir["argv"] + ["--set", "synth.rho=2", "train"])
        assert rc == 1
        assert "synth.rho: must lie in (0, 1)" in capfd.readouterr().err

    def test_one_node_synthetic_data(self, tmp_path, capfd):
        rc = main(
            ["--set", f"out.dir={tmp_path}", "--set", "synth.length=48", "--set", "synth.nodes=1",
             "gen-synthetic"]
        )
        assert rc == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["true_adjacency"] == [[1.0]]
        assert truth["node_order"] == ["node0"]

    def test_cli_defaults_are_the_paper_model(self):
        assert RunConfig().model_config() == ModelConfig(num_nodes=5, target_nodes=[0, 3, 4])

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(DEFAULTS)), value=_json_values)
    def test_one_json_value_builds_or_raises_config_error(self, key, value):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # non-standard horizons
            try:
                cfg = RunConfig({key: value})
            except ConfigError:
                return
        cfg.model_config()
        cfg.synthetic_spec()

    def test_all_file_errors_reported_at_once(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("bogus.key = 1\ntrain.lr = abc\nno equals sign\n")
        with pytest.raises(ConfigError) as exc:
            load_run_config(str(bad))
        msg = str(exc.value)
        assert "line 1" in msg and "line 2" in msg and "line 3" in msg

    def test_nonstandard_horizon_warns(self):
        with pytest.warns(RuntimeWarning, match="horizon 7"):
            load_run_config(None, ["model.horizon=7"])

    def test_standard_horizons_silent(self):
        import warnings

        for h in (6, 12, 18, 24):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                RunConfig({"model.horizon": h})

    def test_seed_flag_overrides(self):
        cfg = load_run_config(None, None, seed=42)
        assert cfg["seed"] == 42

    def test_non_utf8_config_file_exits_one(self, tmp_path, capfd):
        bad = tmp_path / "bad.conf"
        bad.write_bytes(b"seed = 1\nout.dir = caf\xe9\n")
        rc = main(["--config", str(bad), "gen-synthetic"])
        assert rc == 1
        assert f"{bad}: line 2: not UTF-8" in capfd.readouterr().err

    def test_bad_year_list_exits_one(self, workdir, capfd):
        rc = main(workdir["argv"] + ["--set", "split.train_years=20x0", "train"])
        assert rc == 1
        assert "split.train_years: '20x0' is not a year" in capfd.readouterr().err

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(blob=_config_files)
    def test_any_bytes_load_or_raise_config_error(self, tmp_path, blob):
        p = tmp_path / "fuzz.conf"
        p.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # non-standard horizons
            try:
                load_run_config(str(p))
            except ConfigError:
                pass

    def test_year_range_parsing(self):
        cfg = RunConfig({"split.train_years": "2000-2003,2005"})
        assert cfg.years("split.train_years") == [2000, 2001, 2002, 2003, 2005]

    def test_missing_station_file_exits_one(self, workdir, tmp_path, capfd):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(workdir["argv"] + ["--set", f"data.dir={empty}", "train"])
        assert rc == 1

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mswavenet.cli import main
from mswavenet.config import DEFAULTS, ConfigError, RunConfig, load_run_config
from mswavenet.model import ModelConfig
from mswavenet.training import Checkpoint

NODES = "node0,node1,node2"
TARGETS = "node0,node2"

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
            ("synth.sigma=nan", "synth.sigma"),
            ("synth.rho=2", "synth.rho"),
            ("synth.sigma=-1", "synth.sigma"),
            ("synth.length=0", "synth.length"),
            ("synth.nodes=0", "synth.nodes"),
            ("synth.graph=star", "synth.graph"),
            ("seed=-1", "seed"),
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

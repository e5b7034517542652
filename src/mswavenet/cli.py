"""Command-line surface: train, eval, predict, export-adjacency,
gen-synthetic, dump-plot-data.

Exit codes: 0 success, 1 configuration/validation error (including a bad
station CSV or a malformed checkpoint), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import timedelta

from . import autodiff as ad
from . import pipeline, synthetic, training
from .config import ConfigError, RunConfig, load_run_config
from .data import MinMaxScaler, PipelineError, assemble, sliding_windows
from .graph import export_adjacency
from .model import Network
from .training import (
    Checkpoint,
    CheckpointError,
    evaluate_network,
    persistence_baseline,
    predict_physical,
)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_train(cfg: RunConfig, args) -> int:
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    prepared = pipeline.prepare(cfg)
    net = Network(cfg.model_config(), seed=cfg["seed"], node_order=prepared.node_order)
    horizon = cfg["model.horizon"]
    ckpt_path = os.path.join(out_dir, f"checkpoint_h{horizon}.bin")
    log_lines = cfg.echo_lines() + ["epoch train_loss val_loss lr reload"]

    def log_fn(row):
        line = (
            f"{row['epoch']} {row['train_loss']:.8f} {row['val_loss']:.8f} "
            f"{row['lr']:.8g} {int(row['reload'])}"
        )
        log_lines.append(line)
        print(line)

    result = training.train(
        net,
        prepared.train,
        prepared.val,
        prepared.scaler,
        ckpt_path,
        lr=cfg["train.lr"],
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        factor=cfg["train.factor"],
        patience=cfg["train.patience"],
        seed=cfg["seed"],
        log_fn=log_fn,
        run_config=cfg.to_dict(),
    )
    log_path = os.path.join(out_dir, f"train_log_h{horizon}.txt")
    _write_lines(log_path, log_lines)
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    print(f"best val loss: {result.checkpoint.val_loss:.8f} (epoch {result.checkpoint.epoch})")
    return 0


def _metrics_lines(label, metrics):
    lines = [f"{label} overall mae={metrics.mae:.6f} mse={metrics.mse:.6f} horizon={metrics.horizon}"]
    for node, m in metrics.per_node.items():
        lines.append(f"{label} node={node} mae={m['mae']:.6f} mse={m['mse']:.6f}")
    return lines


def cmd_eval(cfg: RunConfig, args) -> int:
    cfg, net, scaler = _load_checkpoint(args, cfg)
    prepared = _prepare_test_split(args, cfg, scaler)
    metrics = evaluate_network(net, prepared.test, prepared.scaler)
    baseline = persistence_baseline(prepared.test, prepared.scaler)
    lines = cfg.echo_lines()
    lines += _metrics_lines("model", metrics)
    lines += _metrics_lines("persistence", baseline)
    for line in lines:
        print(line)
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"metrics_h{metrics.horizon}.txt")
    _write_lines(path, lines)
    print(f"metrics: {path}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    cfg, net, scaler = _load_checkpoint(args, cfg)
    node_order = net.node_order
    raw, timestamps = assemble(pipeline.load_stations(cfg), node_order)
    window = cfg["model.window"]
    horizon = cfg["model.horizon"]
    if raw.shape[0] < window:
        raise PipelineError(
            f"need at least {window} recent hours per station, got {raw.shape[0]}"
        )
    x = sliding_windows(scaler.apply(raw[-window:]), window)
    with ad.no_grad():
        pred_norm = net.forward(x).value[0]
    when = timestamps[-1] + timedelta(hours=horizon)
    target_idx = cfg.target_node_indices()
    for j, node in enumerate(target_idx):
        value = scaler.invert_wind_speed(pred_norm[j], node)
        print(f"{node_order[node]} {when.isoformat()} {float(value):.4f}")
    return 0


def cmd_export_adjacency(cfg: RunConfig, args) -> int:
    cfg, net, _ = _load_checkpoint(args, cfg)
    adj = net.adjacency()
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = args.output or os.path.join(out_dir, "adjacency.csv")
    export_adjacency(adj, path)
    print(f"adjacency: {path}")
    return 0


def cmd_gen_synthetic(cfg: RunConfig, args) -> int:
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    spec = cfg.synthetic_spec()
    series = synthetic.generate(spec)
    for s in series:
        path = os.path.join(out_dir, f"{s.station_name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "temperature", "pressure", "wind_speed", "wind_direction"])
            for ts, row in zip(s.timestamps, s.features):
                stamp = ts.strftime("%Y-%m-%dT%H:00:00Z")
                writer.writerow([stamp] + [f"{v:.8f}" for v in row])
        print(f"station: {path}")
    sidecar = {
        "true_adjacency": spec.true_adjacency.tolist(),
        "num_nodes": spec.num_nodes,
        "ar_coefficient": spec.ar_coefficient,
        "noise_std": spec.noise_std,
        "length": spec.length,
        "seed": spec.seed,
        "shift": spec.shift,
        "graph": spec.graph,
        "node_order": [s.station_name for s in series],
    }
    sidecar_path = os.path.join(out_dir, "truth.json")
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"truth: {sidecar_path}")
    return 0


def cmd_dump_plot_data(cfg: RunConfig, args) -> int:
    cfg, net, scaler = _load_checkpoint(args, cfg)
    test = _prepare_test_split(args, cfg, scaler).test
    pred = predict_physical(net, test, scaler)
    out_dir = cfg["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    horizon = test.horizon
    for j, node in enumerate(test.target_nodes):
        name = test.node_order[node]
        lines = cfg.echo_lines() + ["timestamp actual predicted"]
        for s in range(len(test)):
            stamp = test.target_times[s].isoformat() if test.target_times else str(s)
            lines.append(f"{stamp} {float(test.targets[s, j])!r} {float(pred[s, j])!r}")
        path = os.path.join(out_dir, f"plot_h{horizon}_{name}.txt")
        _write_lines(path, lines)
        print(f"plot data: {path}")
    adj_path = os.path.join(out_dir, f"adjacency_h{horizon}.csv")
    export_adjacency(net.adjacency(), adj_path)
    print(f"adjacency: {adj_path}")
    return 0


# settings that shape the data a command feeds a model, as (key, model
# field); checked on a checkpoint that stores no run config
_DATA_SHAPE_KEYS = (
    ("data.node_order", "num_nodes"),
    ("model.window", "window"),
    ("model.horizon", "horizon"),
    ("data.target_nodes", "target_nodes"),
)


def _load_checkpoint(args, cli_cfg: RunConfig):
    """(config, network, scaler) for a command run on args.checkpoint. The
    config is the RunConfig stored in the checkpoint, with CLI overrides for
    data location and output directory, or the CLI config if none is
    stored. A stored run config must describe the stored model, field by
    field; the CLI config must agree with the stored model on the stations,
    window, horizon and target nodes. Errors name the path and the key."""
    path = args.checkpoint
    ckpt = Checkpoint.load(path)
    cfg = cli_cfg
    if ckpt.run_config is not None:
        values = dict(ckpt.run_config)
        for key in ("data.dir", "out.dir"):
            if cli_cfg[key]:
                values[key] = cli_cfg[key]
        try:
            cfg = RunConfig(values)
        except ConfigError as exc:
            raise ConfigError(f"{path}: run_config:\n{exc}") from None
        for field, value in cfg.model_config().to_dict().items():
            if ckpt.config[field] != value:
                raise CheckpointError(
                    f"{path}: run_config does not describe the checkpoint's model: "
                    f"model.{field} is {value!r} in run_config, {ckpt.config[field]!r} in config"
                )
    try:
        net = ckpt.build_network(node_order=cfg.node_order())
        scaler = MinMaxScaler.from_state(ckpt.scaler)
    except (CheckpointError, PipelineError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if ckpt.run_config is None:
        command = cfg.model_config()
        for key, field in _DATA_SHAPE_KEYS:
            ours, stored = getattr(command, field), getattr(net.config, field)
            if ours != stored:
                raise CheckpointError(
                    f"{path}: {key} gives {field} {ours!r}, the checkpoint's model has {stored!r}"
                )
    shape = (net.config.num_features, net.config.num_nodes)
    if scaler.mins.shape != shape:
        raise CheckpointError(
            f"{path}: scaler.mins: shape {scaler.mins.shape}, the model's is {shape}"
        )
    return cfg, net, scaler


def _prepare_test_split(args, cfg: RunConfig, scaler: MinMaxScaler):
    """The prepared data of a command that forecasts the test split. The
    inputs are normalised with the data's scaler: it must be the checkpoint's."""
    if not cfg.years("split.test_years"):
        raise ConfigError("no test year, so there is nothing to forecast", "split.test_years")
    prepared = pipeline.prepare(cfg)
    if scaler.state() != prepared.scaler.state():
        raise CheckpointError(
            f"{args.checkpoint}: scaler differs from the one fitted on the training "
            f"split of {cfg['data.dir']}"
        )
    return prepared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mswavenet",
        description="Spatio-temporal wavenet wind speed forecasting toolkit",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", dest="overrides",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override the run seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="train a model and write a checkpoint")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("checkpoint")
    p_pred = sub.add_parser("predict", help="forecast from the most recent window")
    p_pred.add_argument("checkpoint")
    p_adj = sub.add_parser("export-adjacency", help="write the learned adjacency as CSV")
    p_adj.add_argument("checkpoint")
    p_adj.add_argument("--output")
    sub.add_parser("gen-synthetic", help="generate synthetic station CSVs with known coupling")
    p_plot = sub.add_parser("dump-plot-data", help="write actual/predicted columns per target node")
    p_plot.add_argument("checkpoint")
    return parser


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "export-adjacency": cmd_export_adjacency,
    "gen-synthetic": cmd_gen_synthetic,
    "dump-plot-data": cmd_dump_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.overrides, args.seed)
    except (ConfigError, OSError) as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, PipelineError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

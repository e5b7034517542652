"""Training recipe: Adam, plateau LR scheduler with best-model reload,
portable binary checkpoints, and MAE/MSE evaluation in physical units.

The loss is MSE on min-max-normalized wind speed; reported metrics
de-normalize predictions back to m/s first. Every forecast without a tape
(validation, evaluation, the CLI's ``predict``) runs through ``forecast``.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .config import ConfigError, finite_number, int_at_least
from .data import WIND_SPEED, DatasetTensor, MinMaxScaler, batch_iter
from .model import ModelConfig, Network


class TrainingError(Exception):
    pass


class CheckpointError(Exception):
    pass


# ---------------------------------------------------------------------------
# checkpoint format: magic, entry count, (name, dims, float64 data) entries,
# then a length-prefixed JSON trailer with config/scaler/seed/epoch/val_loss

MAGIC = b"STGW1"
# trailer key -> accepted JSON types; run_config and node_order are optional
TRAILER_TYPES = {
    "config": dict,
    "scaler": dict,
    "seed": int,
    "epoch": int,
    "val_loss": (int, float),
    "run_config": (dict, type(None)),
    "node_order": (list, type(None)),
}


@dataclass
class Checkpoint:
    params: dict  # name -> float64 ndarray
    config: dict
    scaler: dict
    seed: int
    epoch: int
    val_loss: float
    run_config: dict = None  # full RunConfig echo, when launched via the CLI
    node_order: list = None  # station names the model was trained on

    def save(self, path) -> None:
        chunks = [MAGIC, struct.pack("<I", len(self.params))]
        for name in sorted(self.params):
            arr = np.ascontiguousarray(self.params[name], dtype="<f8")
            name_b = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(name_b)))
            chunks.append(name_b)
            chunks.append(struct.pack("<I", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            chunks.append(arr.tobytes())
        trailer = json.dumps(
            {
                "config": self.config,
                "scaler": self.scaler,
                "seed": self.seed,
                "epoch": self.epoch,
                "val_loss": self.val_loss,
                "run_config": self.run_config,
                "node_order": self.node_order,
            },
            sort_keys=True,
        ).encode("utf-8")
        chunks.append(struct.pack("<I", len(trailer)))
        chunks.append(trailer)
        # write beside the target, then rename over it: a save that fails
        # midway leaves the previous checkpoint (the best-model reload
        # source during training) intact
        path = os.fspath(path)
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"".join(chunks))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:5] != MAGIC:
            raise CheckpointError(f"{path}: bad magic {blob[:5]!r}")
        off = 5

        def take(n):
            nonlocal off
            if off + n > len(blob):
                raise CheckpointError(f"{path}: truncated at byte {off}")
            out = blob[off : off + n]
            off += n
            return out

        try:
            (count,) = struct.unpack("<I", take(4))
            params = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<I", take(4))
                name = take(name_len).decode("utf-8")
                if name in params:
                    raise CheckpointError(f"{path}: params.{name}: listed twice")
                (rank,) = struct.unpack("<I", take(4))
                dims = struct.unpack(f"<{rank}I", take(4 * rank))
                # math.prod of Python ints cannot overflow: oversized dims
                # read as truncation
                data = take(8 * math.prod(dims))
                params[name] = np.frombuffer(data, dtype="<f8").reshape(dims).copy()
            (trailer_len,) = struct.unpack("<I", take(4))
            trailer = json.loads(take(trailer_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # incl. bad UTF-8 and JSON
            raise CheckpointError(f"{path}: malformed at byte {off}: {exc}") from None
        if off != len(blob):
            raise CheckpointError(
                f"{path}: {len(blob) - off} trailing bytes after trailer"
            )
        if not isinstance(trailer, dict):
            raise CheckpointError(f"{path}: trailer is not a JSON object")
        bad = [k for k, kind in TRAILER_TYPES.items() if not isinstance(trailer.get(k), kind)]
        if bad:
            raise CheckpointError(f"{path}: trailer keys missing or mistyped: {bad}")
        for key, ok, want in (
            ("seed", not isinstance(trailer["seed"], bool), "an int"),
            ("epoch", int_at_least(trailer["epoch"], 0), "a non-negative int"),
            ("val_loss", finite_number(trailer["val_loss"]), "a finite number"),
        ):
            if not ok:
                raise CheckpointError(f"{path}: {key}: must be {want}, got {trailer[key]!r}")
        try:
            model = ModelConfig.from_dict(trailer["config"])
        except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise CheckpointError(
                f"{path}: trailer config is not a model config: {exc!r}"
            ) from None
        order = trailer.get("node_order")
        if order is not None and not (
            all(isinstance(name, str) for name in order) and len(set(order)) == len(order)
            and len(order) == model.num_nodes
        ):
            raise CheckpointError(f"{path}: node_order: not {model.num_nodes} distinct names")
        return cls(
            params=params,
            config=trailer["config"],
            scaler=trailer["scaler"],
            seed=trailer["seed"],
            epoch=trailer["epoch"],
            val_loss=trailer["val_loss"],
            run_config=trailer.get("run_config"),
            node_order=order,
        )

    def build_network(self, node_order=None) -> Network:
        """The stored model, its stations named node_order (default: the
        stored names). CheckpointError names node_order or a parameter."""
        if node_order is None:
            node_order = self.node_order
        elif self.node_order is not None and list(node_order) != self.node_order:
            raise CheckpointError(
                f"node_order: the data's stations are {list(node_order)}, "
                f"the checkpoint's {self.node_order}"
            )
        try:
            net = Network(ModelConfig.from_dict(self.config), seed=self.seed, node_order=node_order)
        except ConfigError as exc:
            raise CheckpointError(str(exc)) from None
        try:
            net.load_state_dict(self.params)
        except (KeyError, ValueError) as exc:  # ShapeMismatchError is a ValueError
            raise CheckpointError(f"params.{exc.args[0]}") from None
        return net


# ---------------------------------------------------------------------------


class AdamOptimizer:
    """Standard Adam with bias correction."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)  # (name, Variable)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = {name: np.zeros_like(p.value) for name, p in self.params}
        self.v = {name: np.zeros_like(p.value) for name, p in self.params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)


class PlateauScheduler:
    """Cut the LR by ``factor`` after ``patience`` consecutive non-improving
    epochs, restoring the best-so-far parameters on every cut."""

    def __init__(self, optimizer, save_best, restore_best, factor=0.7, patience=3):
        self.optimizer = optimizer
        self.save_best = save_best
        self.restore_best = restore_best
        self.factor = factor
        self.patience = patience
        self.best_val_loss = math.inf
        self.epochs_since_improvement = 0
        self.has_best = False

    def step(self, val_loss: float) -> dict:
        """Call once per epoch after validation; returns event flags."""
        improved = val_loss < self.best_val_loss
        cut = False
        if improved:
            self.best_val_loss = val_loss
            self.epochs_since_improvement = 0
            self.save_best()
            self.has_best = True
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement >= self.patience:
                if not self.has_best:
                    raise TrainingError("learning-rate cut without a saved best model")
                self.optimizer.lr *= self.factor
                self.restore_best()
                self.epochs_since_improvement = 0
                cut = True
        return {"improved": improved, "cut": cut, "lr": self.optimizer.lr}


@dataclass
class Metrics:
    mae: float
    mse: float
    per_node: dict  # node name -> {"mae": ..., "mse": ...}
    horizon: int


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list = field(default_factory=list)  # per-epoch dicts


# glibc mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_malloc_policy_set = False


def set_malloc_policy() -> bool:
    """Keep freed memory in the heap for the next training step.

    By default glibc serves each block above its mmap threshold (which it
    raises to at most 32 MB) with a fresh mapping, and hands free memory at
    the heap top back to the kernel beyond its trim threshold. The buffers
    a step frees then fault in again, page by page, on the next forward.
    Raising both thresholds keeps them in the heap for reuse. The policy
    holds for the whole process and is set once; off glibc this is a
    no-op. Returns whether this call set it.
    """
    global _malloc_policy_set
    if _malloc_policy_set or platform.libc_ver()[0] != "glibc":
        return False
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 256 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    _malloc_policy_set = True
    return True


FORECAST_BATCH = 256  # windows per forward of forecast()


def forecast(net: Network, inputs) -> np.ndarray:
    """Normalized forecasts [S, n_targets] of the windows inputs
    [S, D, N, W]: ``net.forward`` under ``no_grad``, FORECAST_BATCH windows
    at a time. No windows give a [0, n_targets] array."""
    with ad.no_grad():
        return np.concatenate([
            net.forward(inputs[start : start + FORECAST_BATCH]).value
            for start in range(0, max(len(inputs), 1), FORECAST_BATCH)
        ])


def _eval_loss(net: Network, inputs, norm_targets) -> float:
    """Mean squared error of the forecasts of inputs against norm_targets,
    summed one FORECAST_BATCH slice at a time."""
    pred = forecast(net, inputs)
    total_sq = 0.0
    for start in range(0, len(pred), FORECAST_BATCH):
        batch = slice(start, start + FORECAST_BATCH)
        total_sq += float(((pred[batch] - norm_targets[batch]) ** 2).sum())
    return total_sq / norm_targets.size


def train(
    net: Network,
    train_ds: DatasetTensor,
    val_ds: DatasetTensor,
    scaler: MinMaxScaler,
    checkpoint_path,
    lr: float = 0.001,
    epochs: int = 50,
    batch_size: int = 64,
    factor: float = 0.7,
    patience: int = 3,
    seed: int = 0,
    log_fn=None,
    run_config: dict = None,
) -> TrainResult:
    """Run the full recipe and return the best-validation checkpoint."""
    if len(train_ds) == 0:
        raise TrainingError("training split is empty")
    set_malloc_policy()
    optimizer = AdamOptimizer(net.parameters(), lr=lr)
    norm_train_ds = replace(
        train_ds, targets=scaler.normalize_wind_speed(train_ds.targets, train_ds.target_nodes)
    )
    val_targets = scaler.normalize_wind_speed(val_ds.targets, val_ds.target_nodes) if len(val_ds) else None

    def make_checkpoint(epoch, val_loss):
        return Checkpoint(
            params=net.state_dict(),
            config=net.config.to_dict(),
            scaler=scaler.state(),
            seed=net.seed,
            epoch=epoch,
            val_loss=val_loss,
            run_config=run_config,
            node_order=net.node_order,
        )

    state = {"epoch": 0, "val_loss": math.inf}

    def save_best():
        make_checkpoint(state["epoch"], state["val_loss"]).save(checkpoint_path)

    def restore_best():
        try:
            best = Checkpoint.load(checkpoint_path)
        except (OSError, CheckpointError) as exc:
            raise TrainingError(f"best checkpoint unavailable for reload: {exc}") from exc
        net.load_state_dict(best.params)

    scheduler = PlateauScheduler(optimizer, save_best, restore_best, factor, patience)
    log = []
    for epoch in range(1, epochs + 1):
        epoch_sq = 0.0
        epoch_n = 0
        try:  # either forward's softmax_rows raises FloatingPointError once the embeddings diverge
            for xb, tb in batch_iter(norm_train_ds, batch_size, shuffle=True, seed=seed + epoch):
                net.zero_grad()
                loss = ad.mse_loss(net.forward(xb), tb)
                if not np.isfinite(loss.value):
                    raise TrainingError(f"training diverged at epoch {epoch}: loss {loss.value}")
                ad.backward(loss)
                optimizer.step()
                epoch_sq += float(loss.value) * tb.size
                epoch_n += tb.size
            train_loss = epoch_sq / epoch_n
            if val_targets is not None:
                val_loss = _eval_loss(net, val_ds.inputs, val_targets)
            else:
                val_loss = train_loss
        except FloatingPointError as exc:
            raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
        if not math.isfinite(val_loss):
            raise TrainingError(f"validation loss {val_loss} at epoch {epoch}")
        state["epoch"] = epoch
        state["val_loss"] = val_loss
        events = scheduler.step(val_loss)
        row = {
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "lr": events["lr"],
            "reload": events["cut"],
        }
        log.append(row)
        if log_fn:
            log_fn(row)
    best = Checkpoint.load(checkpoint_path)
    return TrainResult(checkpoint=best, log=log)


def overfit(net: Network, inputs, targets, max_steps=2000, lr=0.001, tol=1e-3):
    """Full-batch Adam until the training MSE drops below tol (memorization
    sanity check). Returns (steps_taken, final_mse)."""
    optimizer = AdamOptimizer(net.parameters(), lr=lr)
    mse = math.inf
    for step in range(1, max_steps + 1):
        net.zero_grad()
        loss = ad.mse_loss(net.forward(inputs), targets)
        mse = float(loss.value)
        if mse < tol:
            return step, mse
        ad.backward(loss)
        optimizer.step()
    return max_steps, mse


def _metrics(pred: np.ndarray, dataset: DatasetTensor) -> Metrics:
    """Errors of physical forecasts [S, n_targets] against dataset's targets."""
    err = pred - dataset.targets
    per_node = {}
    for j, node in enumerate(dataset.target_nodes):
        per_node[dataset.node_order[node]] = {
            "mae": float(np.abs(err[:, j]).mean()),
            "mse": float((err[:, j] ** 2).mean()),
        }
    return Metrics(
        mae=float(np.abs(err).mean()),
        mse=float((err**2).mean()),
        per_node=per_node,
        horizon=dataset.horizon,
    )


def predict_physical(net: Network, dataset: DatasetTensor, scaler: MinMaxScaler):
    """The forecast() of dataset's windows de-normalized to m/s, [S,
    n_targets], with the scaler's range of each target station. Raises
    TrainingError if the network forecasts another number of targets."""
    n_out = len(net.config.target_nodes)
    if n_out != len(dataset.target_nodes):
        raise TrainingError(
            f"the network forecasts {n_out} target nodes, the dataset has "
            f"{len(dataset.target_nodes)}"
        )
    return scaler.invert_wind_speed(forecast(net, dataset.inputs), dataset.target_nodes)


def evaluate(checkpoint: Checkpoint, dataset: DatasetTensor, scaler: MinMaxScaler) -> Metrics:
    """MAE/MSE in m/s over a split, with a per-target-node breakdown."""
    if checkpoint.scaler != scaler.state():
        raise TrainingError("scaler does not match the one stored in the checkpoint")
    return evaluate_network(checkpoint.build_network(node_order=dataset.node_order), dataset, scaler)


def evaluate_network(net: Network, dataset: DatasetTensor, scaler: MinMaxScaler) -> Metrics:
    """evaluate() for a built network whose scaler the caller has checked."""
    return _metrics(predict_physical(net, dataset, scaler), dataset)


def persistence_baseline(dataset: DatasetTensor, scaler: MinMaxScaler) -> Metrics:
    """Forecast = last observed wind speed in the window, in m/s."""
    nodes = dataset.target_nodes
    return _metrics(scaler.invert_wind_speed(dataset.inputs[:, WIND_SPEED, nodes, -1], nodes), dataset)

"""The benchmark's workloads and the metrics they report.

- ``train_small``: ``training.train()`` on the criterion-5 config (C=16,
  skip 32, head 32/16, W=16, horizon 1) over several short epochs.
  Small GEMMs, so per-op Python/tape overhead, the training loop, Adam,
  validation and checkpoint saves are a large share of a step.
- ``train_paper``: ``training.train()`` on the paper-default config (C=32,
  skip 64, head 128/64, W=48) for a fixed number of Adam steps. The dilated
  conv GEMMs and large fresh temporaries dominate.
- ``serve``: forward only, on a paper-default checkpoint: set-up runs
  ``pipeline.prepare`` over multi-year CSVs written by ``mswavenet
  gen-synthetic`` plus ``Checkpoint.load``/``build_network``; then
  ``evaluate()`` over a fixed test slice and a closed loop of one client
  sending batch-1 forecasts.

Every workload generates its inputs from the seed, sets up ``SETUP_REPS``
times (the median is ``setup_s``; warm-up steps are part of set-up), then
measures for the given seconds and checks every output it measured.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
from dataclasses import dataclass, replace

import numpy as np

from mswavenet import autodiff, cli, data, pipeline, synthetic, training
from mswavenet.config import RunConfig
from mswavenet.model import ModelConfig, Network

from tracing import END, LAYER, NAME, OP, PHASE, START, Tracer, clock, median_or_zero, minflt

NODES = [f"node{i}" for i in range(5)]
MODEL_SEED = 100  # network initialisation is fixed; the data follows --seed
SETUP_REPS = 3
BURN_IN = 200  # hours; the generator starts from N(0, 1) and decays by 0.9 an hour
NOISE_STD = 0.02  # as in acceptance criterion 5
BATCH_SIZE = 64
# training windows are taken this many hours apart from a longer series, so
# the scaler and the targets vary less from seed to seed
WINDOW_STRIDE = 8
ADJ_TOL = 1e-12  # adjacency rows sum to 1
FORECAST_RTOL = 1e-9  # batch-1 forecasts against evaluate() forecasts

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_samples_per_s", "samples/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# what each shared end-to-end metric means on each kind of workload, as printed
ALIASES = {
    "train": {
        "throughput_samples_per_s": "train_samples_per_s",
        "latency_ms_p50": "step_ms_p50",
        "latency_ms_p90": "step_ms_p90",
        "loss_final": "train_loss_final",
    },
    "serve": {
        "throughput_samples_per_s": "eval_samples_per_s",
        "latency_ms_p50": "predict_ms_p50",
        "latency_ms_p90": "predict_ms_p90",
        "loss_final": "eval_loss_final",
    },
}

LAYERS = (
    ["input_proj"]
    + [f"block{i}.{part}" for i in range(4) for part in ("tcn_a", "tcn_b", "gcn", "skip")]
    + ["head"]
)
TRACED_OPS = ("conv_time_dilated_causal", "conv_1x1", "concat_channels")
PER_LAYER = (
    [
        (f"autodiff.{op}.{key}", unit, "lower")
        for op in TRACED_OPS
        for key, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))
    ]
    + [
        ("autodiff.backward_ms", "ms", "lower"),
        ("autodiff.tape_build_ms", "ms", "lower"),
        ("autodiff.tape_nodes", "count", "lower"),
        ("autodiff.tape_bytes", "bytes", "lower"),
        ("autodiff.step_gflop", "GFLOP", "lower"),
        ("autodiff.gflops", "GFLOP/s", "higher"),
    ]
    + [(f"model.{layer}.{d}_ms", "ms", "lower") for layer in LAYERS for d in ("fwd", "bwd")]
    + [
        ("graph.adjacency.fwd_ms", "ms", "lower"),
        ("training.adam_ms", "ms", "lower"),
        ("training.val_ms", "ms", "lower"),
        ("training.checkpoint_save_ms", "ms", "lower"),
        ("training.checkpoint_saves", "count", "lower"),
        ("training.checkpoint_load_ms", "ms", "lower"),
        ("data.batch_wait_ms", "ms", "lower"),
        ("data.load_station_csv_ms", "ms", "lower"),
        ("data.assemble_ms", "ms", "lower"),
        ("data.make_windows_ms", "ms", "lower"),
        ("data.windows_bytes", "bytes", "lower"),
        ("pipeline.prepare_s", "s", "lower"),
        ("mem.minflt_per_step", "count", "lower"),
        ("mem.minflt_per_forward", "count", "lower"),
        ("synthetic.generate_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
    ]
)

# counts that must repeat bit-for-bit for the same code and seed
EXACT_COUNTS = [f"autodiff.{op}.calls" for op in TRACED_OPS] + [
    "autodiff.tape_nodes",
    "autodiff.tape_bytes",
    "autodiff.step_gflop",
    "data.windows_bytes",
    "training.checkpoint_saves",
]


@dataclass(frozen=True)
class TrainSpec:
    model: dict  # ModelConfig arguments beyond the defaults (the paper's)
    train_windows: int  # a multiple of BATCH_SIZE: every step is a full batch
    val_windows: int
    epochs: int
    lr: float
    warmup_batches: int


@dataclass(frozen=True)
class ServeSpec:
    train_years: int = 2  # from 2000; then one validation year and the test year
    test_hours: int = 720
    # one evaluate() batch: 256 windows peak at ~3.5 GB, and a short call
    # lets each run time a dozen of them
    eval_windows: int = 64
    eval_stride: int = 5  # hours between the slice's windows
    warmup_forecasts: int = 8


SPECS = {
    "train_small": TrainSpec(
        model=dict(
            residual_channels=16, skip_channels=32, head_channels=(32, 16),
            window=16, horizon=1, target_nodes=[0, 1, 2, 3, 4],
        ),
        train_windows=256, val_windows=128, epochs=4, lr=0.002, warmup_batches=2,
    ),
    "train_paper": TrainSpec(
        model=dict(horizon=6),
        train_windows=320, val_windows=64, epochs=1, lr=0.001, warmup_batches=1,
    ),
    "serve": ServeSpec(),
}

# reduced sizes for the smoke test: same configs, less data and fewer steps
SMOKE_SPECS = {
    "train_small": replace(SPECS["train_small"], train_windows=128, val_windows=64, epochs=3, warmup_batches=1),
    "train_paper": replace(SPECS["train_paper"], train_windows=64, val_windows=64, warmup_batches=1),
    "serve": replace(SPECS["serve"], train_years=1, test_hours=48, eval_windows=16, eval_stride=2, warmup_forecasts=2),
}


class Run:
    """One workload run: the tracer, the operation counts and the problems found."""

    def __init__(self, workdir, trace):
        self.workdir = workdir
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def exact(self, name, values):
        """Record a count that must be the same on every operation."""
        values = list(values)
        if not values:
            return 0
        self.check(len(set(values)) == 1, f"{name} differs between operations: {sorted(set(values))}")
        self.counts[name] = values[0]
        return values[0]

    def ops(self, kind, after):
        return [op for op, k in self.tracer.kinds.items() if k == kind and op > after]

    def spans(self, name, ops=None):
        return [s for s in self.tracer.spans if s[NAME] == name and (ops is None or s[OP] in ops)]


def _durations(spans):
    return [s[END] - s[START] for s in spans]


def _mean(values):
    """Faults come in bursts every few steps, so they are averaged, not medians."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _adjacency_ok(run, net, label):
    rows = net.adjacency().values.value.sum(axis=1)
    return run.check(
        np.all(np.abs(rows - 1.0) <= ADJ_TOL), f"{label}: adjacency rows sum to {rows.tolist()}"
    )


def _traced_setup(run):
    """The traced run traces set-up too, for the data-layer metrics."""
    return run.tracer.full() if run.trace else contextlib.nullcontext()


def _windows_bytes(*datasets):
    return sum(ds.inputs.nbytes for ds in datasets)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# training workloads


def _train_setup(run, spec, cfg, series, seed):
    """Windows from the generated stations, then a warm-up train() call."""
    window, horizon = cfg.window, cfg.horizon
    rows = _train_rows(spec, cfg)
    raw, stamps = data.assemble(series, NODES)
    scaler = data.MinMaxScaler.fit(raw[:rows])
    norm = scaler.apply(raw)
    train_ds = data.make_windows(norm[:rows], raw[:rows], window, horizon, cfg.target_nodes, NODES, stamps[:rows])
    lo = rows - (window + horizon - 1)  # validation inputs reach back into the training tail
    val_ds = data.make_windows(norm[lo:], raw[lo:], window, horizon, cfg.target_nodes, NODES, stamps[lo:])
    train_ds = _every(train_ds, WINDOW_STRIDE, spec.train_windows)
    val_ds = _every(val_ds, WINDOW_STRIDE, spec.val_windows)
    n_warm = spec.warmup_batches * BATCH_SIZE
    training.train(
        Network(cfg, seed=MODEL_SEED, node_order=NODES), _every(train_ds, 1, n_warm), val_ds, scaler,
        os.path.join(run.workdir, "warmup.bin"), lr=spec.lr, epochs=1,
        batch_size=BATCH_SIZE, seed=seed,
    )
    return train_ds, val_ds, scaler


def _train_rows(spec, cfg):
    return WINDOW_STRIDE * spec.train_windows + cfg.window + cfg.horizon - 1


def _every(ds, stride, count):
    """Every stride-th window, the first count of them, as compact arrays."""
    pick = slice(0, stride * count, stride)
    return replace(
        ds,
        inputs=np.ascontiguousarray(ds.inputs[pick]),
        targets=np.ascontiguousarray(ds.targets[pick]),
        target_times=ds.target_times[pick],
    )


def _train_calls(run, spec, cfg, prepared, seed, deadline):
    """Repeat identical train() calls until the deadline; return per-call records."""
    train_ds, val_ds, scaler = prepared
    steps_per_call = spec.epochs * spec.train_windows // BATCH_SIZE
    calls = []
    while True:
        net = Network(cfg, seed=MODEL_SEED, node_order=NODES)
        call_op = run.tracer.new_op("call")
        saves_before = len(run.spans("training.checkpoint_save"))
        run.attempted += steps_per_call
        try:
            with run.tracer.span("training.train", phase="train"):
                t0 = clock()
                result = training.train(
                    net, train_ds, val_ds, scaler, os.path.join(run.workdir, "checkpoint.bin"),
                    lr=spec.lr, epochs=spec.epochs, batch_size=BATCH_SIZE, seed=seed,
                )
                wall = clock() - t0
        except Exception as exc:  # a failed call fails all its steps
            run.failed += steps_per_call
            run.check(False, f"train() raised {type(exc).__name__}: {exc}")
            return calls
        steps = run.spans("train.step", set(run.ops("step", call_op)))
        log = result.log
        ok = run.check(len(steps) == steps_per_call, f"{len(steps)} steps, expected {steps_per_call}")
        ok &= run.check(
            all(math.isfinite(r["train_loss"]) and math.isfinite(r["val_loss"]) for r in log),
            f"non-finite loss in {log}",
        )
        if spec.epochs > 1:
            ok &= run.check(
                log[-1]["train_loss"] < log[0]["train_loss"],
                f"train loss did not fall: {log[0]['train_loss']} -> {log[-1]['train_loss']}",
            )
        ok &= _adjacency_ok(run, result.checkpoint.build_network(node_order=NODES), "trained checkpoint")
        record = {
            "wall": wall,
            "steps": _durations(steps),
            "loss": log[-1]["train_loss"],
            "saves": len(run.spans("training.checkpoint_save")) - saves_before,
            "first_op": call_op,
        }
        if calls:  # the same seed and inputs must give the same bits every call
            ok &= run.check(
                (record["loss"], record["saves"]) == (calls[0]["loss"], calls[0]["saves"]),
                f"train() not repeatable: loss {record['loss']!r} vs {calls[0]['loss']!r}",
            )
        if not ok:
            run.failed += steps_per_call
        calls.append(record)
        if clock() >= deadline:
            return calls


def run_train(run, spec, seed, seconds):
    cfg = ModelConfig(**spec.model)
    length = BURN_IN + _train_rows(spec, cfg) + WINDOW_STRIDE * spec.val_windows
    series = synthetic.generate(synthetic.SyntheticSpec(
        num_nodes=len(NODES), noise_std=NOISE_STD, length=length, seed=seed,
    ))
    # drop the decay from the random start so every seed's data is stationary
    series = [replace(s, timestamps=s.timestamps[BURN_IN:], features=s.features[BURN_IN:]) for s in series]
    setups = []
    with _traced_setup(run):
        for _ in range(SETUP_REPS):
            run.tracer.new_op("setup")
            t0 = clock()
            prepared = _train_setup(run, spec, cfg, series, seed)
            setups.append(clock() - t0)
    run.counts["data.windows_bytes"] = _windows_bytes(prepared[0], prepared[1])

    start = clock()
    if not run.trace:
        calls = _train_calls(run, spec, cfg, prepared, seed, start + seconds)
        traced = []
    else:
        calls = _train_calls(run, spec, cfg, prepared, seed, start + seconds / 2)
        with run.tracer.full():
            traced = _train_calls(run, spec, cfg, prepared, seed, start + seconds)
    run.exact("training.checkpoint_saves", [c["saves"] for c in calls + traced])
    steps = [d for c in calls for d in c["steps"]]
    samples = len(calls) * spec.epochs * spec.train_windows
    result = {
        "setup_s": float(np.median(setups)),
        "throughput_samples_per_s": median_or_zero(
            spec.epochs * spec.train_windows / c["wall"] for c in calls
        ),
        "latency_ms_p50": _percentile(steps, 50) * 1e3,
        "latency_ms_p90": _percentile(steps, 90) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples_info = {"setups": len(setups), "train_calls": len(calls), "steps": len(steps), "samples": samples}
    layers = {}
    if traced:
        traced_ops = set(range(traced[0]["first_op"], run.tracer.op + 1))
        step_ops = run.ops("step", traced[0]["first_op"])
        traced_steps = [d for c in traced for d in c["steps"]]
        layers = _op_layers(run, step_ops)
        roots = run.spans("training.train", traced_ops)
        layers["trace.coverage_frac"] = _coverage(run, traced_ops) / sum(_durations(roots))
        layers["trace_overhead_frac"] = float(np.median(traced_steps) / np.median(steps) - 1.0)
        layers["training.val_ms"] = median_or_zero(_durations(run.spans("training.validation", traced_ops))) * 1e3
        layers["training.checkpoint_saves"] = run.counts["training.checkpoint_saves"]
        layers["mem.minflt_per_step"] = _mean(run.tracer.minflt_op[op] for op in step_ops)
        layers["mem.minflt_per_forward"] = _mean(
            f for op, f in run.tracer.minflt_forward if op in set(step_ops)
        )
        tapes = [run.tracer.tape[op] for op in step_ops if op in run.tracer.tape]
        layers["autodiff.tape_nodes"] = run.exact("autodiff.tape_nodes", [t[0] for t in tapes])
        layers["autodiff.tape_bytes"] = run.exact("autodiff.tape_bytes", [t[1] for t in tapes])
        samples_info["traced_steps"] = len(traced_steps)
    return result, layers, samples_info, calls[0]["loss"] if calls else math.nan


# ---------------------------------------------------------------------------
# serving workload


def _serve_config(spec, workdir):
    last_train = 2000 + spec.train_years - 1
    return RunConfig({
        "data.dir": workdir,
        "out.dir": workdir,
        "data.node_order": ",".join(NODES),
        "data.target_nodes": "node0,node3,node4",
        "split.train_years": f"2000-{last_train}",
        "split.val_years": str(last_train + 1),
        "split.test_years": str(last_train + 2),
    })


def _serve_hours(spec):
    days = sum(366 if year % 4 == 0 else 365 for year in range(2000, 2000 + spec.train_years + 1))
    return days * 24 + spec.test_hours


def _serve_setup(run, spec, cfg, ckpt_path, write_checkpoint):
    """Returns (set-up seconds, prepared data, checkpoint, network, test slice).

    The first set-up also writes the checkpoint: that is input generation,
    so its time is left out of set-up."""
    t0 = clock()
    prepared = pipeline.prepare(cfg)
    t_prepare = clock() - t0
    if write_checkpoint:
        net = Network(cfg.model_config(), seed=MODEL_SEED, node_order=prepared.node_order)
        training.Checkpoint(
            params=net.state_dict(), config=net.config.to_dict(), scaler=prepared.scaler.state(),
            seed=MODEL_SEED, epoch=0, val_loss=0.0, run_config=cfg.to_dict(),
        ).save(ckpt_path)
    t0 = clock()
    ckpt = training.Checkpoint.load(ckpt_path)
    net = ckpt.build_network(node_order=prepared.node_order)
    test = _every(prepared.test, spec.eval_stride, spec.eval_windows)
    training.evaluate(ckpt, test, prepared.scaler)
    for i in range(spec.warmup_forecasts):
        net.forward(test.inputs[i % len(test) : i % len(test) + 1])
    return t_prepare + clock() - t0, prepared, ckpt, net, test


def _serve_phase(run, ckpt, net, test, scaler, reference, deadline):
    """Alternate evaluate() calls with batch-1 forecasts for as long as each
    call took, so both spread over the whole phase; at least two calls."""
    walls, latencies = [], []
    while len(walls) < 2 or clock() < deadline:
        wall, reference = _evaluate_once(run, ckpt, test, scaler, reference)
        walls.append(wall)
        latencies += _forecast_calls(run, net, test, scaler, reference, clock() + wall, len(latencies))
    return walls, latencies, reference


def _evaluate_once(run, ckpt, test, scaler, reference):
    """One evaluate() on the test slice; returns its wall time and forecasts."""
    batches = -(-len(test) // 256)  # evaluate() forecasts in batches of 256
    op = run.tracer.new_op("evaluate")
    run.attempted += batches
    faults = minflt()
    with run.tracer.span("serve.evaluate", phase="eval"):
        t0 = clock()
        metrics = training.evaluate(ckpt, test, scaler)
        wall = clock() - t0
    if run.tracer.full_on:
        run.tracer.minflt_op[op] = (minflt() - faults) / batches
    pred = run.tracer.captured.pop()
    if reference is None:
        reference = pred
    mse = float(((pred - test.targets) ** 2).mean())
    ok = run.check(np.array_equal(pred, reference), "evaluate() forecasts differ between calls")
    ok &= run.check(math.isfinite(metrics.mse) and np.isclose(metrics.mse, mse, rtol=1e-12, atol=0.0),
                    f"evaluate() mse {metrics.mse} != {mse} from its forecasts")
    if not ok:
        run.failed += batches
    return wall, reference


def _forecast_calls(run, net, test, scaler, reference, deadline, first):
    """Closed loop, one client: batch-1 forecasts over the test slice."""
    tracer = run.tracer
    traced = tracer.full_on
    latencies = []
    while not latencies or clock() < deadline:
        i = (first + len(latencies)) % len(test)
        tracer.new_op("forecast")
        if traced:
            tracer.open("serve.forecast")
        t0 = clock()
        x = test.inputs[i : i + 1]
        t1 = clock()
        out = net.forward(x).value[0]
        t2 = clock()
        if traced:
            tracer.record("data.batch_wait", None, t0, t1, phase="predict")
            tracer.close()
        latencies.append(t2 - t1)
        run.attempted += 1
        physical = np.array([scaler.invert_wind_speed(out[j], n) for j, n in enumerate(test.target_nodes)])
        if not run.check(
            np.all(np.abs(physical - reference[i]) <= FORECAST_RTOL * np.abs(reference[i])),
            f"forecast {i} {physical.tolist()} != evaluate() {reference[i].tolist()}",
        ):
            run.failed += 1
    return latencies


def run_serve(run, spec, seed, seconds):
    cfg = _serve_config(spec, run.workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "--seed", str(seed), "--set", f"out.dir={run.workdir}",
            "--set", f"synth.length={_serve_hours(spec)}", "gen-synthetic",
        ])
    if not run.check(code == 0, f"gen-synthetic exited {code}"):
        raise RuntimeError(run.problems[-1])
    ckpt_path = os.path.join(run.workdir, "serve_checkpoint.bin")
    setups = []
    with _traced_setup(run):
        for rep in range(SETUP_REPS):
            run.tracer.new_op("setup")
            seconds_setup, prepared, ckpt, net, test = _serve_setup(run, spec, cfg, ckpt_path, rep == 0)
            setups.append(seconds_setup)
    run.counts["data.windows_bytes"] = _windows_bytes(prepared.train, prepared.val, prepared.test)
    _adjacency_ok(run, net, "serve network")
    scaler = prepared.scaler

    start = clock()
    mid = start + (seconds / 2 if run.trace else seconds)
    eval_walls, latencies, reference = _serve_phase(run, ckpt, net, test, scaler, None, mid)
    layers = {}
    if run.trace:
        first = run.tracer.op
        with run.tracer.full():
            _, traced_lat, _ = _serve_phase(run, ckpt, net, test, scaler, reference, start + seconds)
            probes = []
            for i in range(20):  # the tape a backward pass would build on a forecast
                probes.append(run.tracer.new_op("tape_probe"))
                autodiff.GradientTape(net.forward(test.inputs[i % len(test) : i % len(test) + 1]))
        forecast_ops = run.ops("forecast", first)
        layers = _op_layers(run, forecast_ops)
        roots = run.spans("serve.forecast", set(forecast_ops))
        layers["trace.coverage_frac"] = _coverage(run, set(forecast_ops)) / sum(_durations(roots))
        layers["trace_overhead_frac"] = float(np.median(traced_lat) / np.median(latencies) - 1.0)
        layers["training.checkpoint_saves"] = len(run.spans("training.checkpoint_save"))
        layers["mem.minflt_per_step"] = _mean(run.tracer.minflt_op[op] for op in run.ops("evaluate", first))
        layers["mem.minflt_per_forward"] = _mean(
            f for op, f in run.tracer.minflt_forward if op in set(forecast_ops)
        )
        probe_spans = run.spans("autodiff.tape_build", set(probes))
        layers["autodiff.tape_build_ms"] = median_or_zero(_durations(probe_spans)) * 1e3
        tapes = [run.tracer.tape[op] for op in probes]
        layers["autodiff.tape_nodes"] = run.exact("autodiff.tape_nodes", [t[0] for t in tapes])
        layers["autodiff.tape_bytes"] = run.exact("autodiff.tape_bytes", [t[1] for t in tapes])
    run.counts["training.checkpoint_saves"] = len(run.spans("training.checkpoint_save"))

    result = {
        "setup_s": float(np.median(setups)),
        "throughput_samples_per_s": len(test) / float(np.median(eval_walls)),
        "latency_ms_p50": _percentile(latencies, 50) * 1e3,
        "latency_ms_p90": _percentile(latencies, 90) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples_info = {
        "setups": len(setups), "evaluate_calls": len(eval_walls),
        "eval_windows": len(test), "forecasts": len(latencies),
    }
    loss = np.mean([
        (scaler.normalize_wind_speed(reference[:, j], n) - scaler.normalize_wind_speed(test.targets[:, j], n)) ** 2
        for j, n in enumerate(test.target_nodes)
    ])
    return result, layers, samples_info, float(loss)


# ---------------------------------------------------------------------------
# per-layer aggregation over traced operations


def _op_layers(run, ops):
    """Per-operation medians of op, layer and step-part times from the spans."""
    tracer = run.tracer
    self_times = tracer.self_times()
    per_op = {op: {} for op in ops}
    for s, self_t in zip(tracer.spans, self_times):
        m = per_op.get(s[OP])
        if m is None or s[END] is None:
            continue
        name = s[NAME]
        d = "bwd" if s[PHASE] == "bwd" else "fwd"
        dur_ms = (s[END] - s[START]) * 1e3
        if name.startswith("autodiff.") and name[9:] in TRACED_OPS:
            _add(m, f"{name}.{d}_ms", dur_ms)
            if d == "fwd":
                _add(m, f"{name}.calls", 1)
        if s[LAYER]:
            key = s[LAYER] if s[LAYER].startswith("graph.") else f"model.{s[LAYER]}"
            _add(m, f"{key}.{d}_ms", self_t * 1e3)
        elif name in ("autodiff.backward", "autodiff.tape_build", "training.adam", "data.batch_wait"):
            _add(m, f"{name}_ms", dur_ms)
    layers = {}
    for name, _unit, _better in PER_LAYER:
        if name.endswith("_ms") or name.endswith(".calls"):
            layers[name] = median_or_zero(m.get(name, 0.0) for m in per_op.values())
    for op in TRACED_OPS:
        key = f"autodiff.{op}.calls"
        layers[key] = run.exact(key, [per_op[o].get(key, 0) for o in ops])
    gflop = run.exact("autodiff.step_gflop", [tracer.flop[o] / 1e9 for o in ops])
    walls = [
        s[END] - s[START] for s in tracer.spans
        if s[OP] in per_op and s[NAME] in ("train.step", "serve.forecast")
    ]
    layers["autodiff.step_gflop"] = gflop
    layers["autodiff.gflops"] = gflop / median_or_zero(walls) if walls else 0.0
    return layers


def _add(m, key, value):
    m[key] = m.get(key, 0.0) + value


_COVERED = {
    "training.adam", "data.batch_wait", "autodiff.tape_build", "training.validation",
    "training.checkpoint_save", "training.checkpoint_load",
}


def _coverage(run, ops):
    """Self time of spans that belong to a layer or a named step part."""
    total = 0.0
    for s, self_t in zip(run.tracer.spans, run.tracer.self_times()):
        if s[OP] in ops and (s[LAYER] or s[NAME] in _COVERED):
            total += self_t
    return total


def _setup_layers(run):
    """Data-layer times per set-up, median over the set-ups."""
    setup_ops = set(run.ops("setup", 0))
    per = {op: {} for op in setup_ops}
    for s in run.tracer.spans:
        if s[OP] in per and s[END] is not None:
            _add(per[s[OP]], s[NAME], s[END] - s[START])
    out = {}
    for key, span_name, scale in (
        ("data.load_station_csv_ms", "data.load_station_csv", 1e3),
        ("data.assemble_ms", "data.assemble", 1e3),
        ("data.make_windows_ms", "data.make_windows", 1e3),
        ("pipeline.prepare_s", "pipeline.prepare", 1.0),
    ):
        out[key] = median_or_zero(m.get(span_name, 0.0) * scale for m in per.values())
    return out


def run_workload(name, seed, seconds, trace, workdir, smoke=False):
    """Run one workload; returns a dict with the metrics, counts and checks."""
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    run = Run(workdir, trace)
    with run.tracer.light():
        runner = run_serve if name == "serve" else run_train
        end_to_end, layers, samples, loss = runner(run, spec, seed, seconds)
    if trace:
        layers.update(_setup_layers(run))
        gen = run.spans("synthetic.generate")
        layers["synthetic.generate_s"] = sum(_durations(gen))
        saves = run.spans("training.checkpoint_save")
        loads = run.spans("training.checkpoint_load")
        layers["training.checkpoint_save_ms"] = median_or_zero(_durations(saves)) * 1e3
        layers["training.checkpoint_load_ms"] = median_or_zero(_durations(loads)) * 1e3
        layers["data.windows_bytes"] = run.counts["data.windows_bytes"]
    kind = "serve" if name == "serve" else "train"
    return {
        "run": run,
        "end_to_end": end_to_end,
        "loss_final": loss,
        "aliases": ALIASES[kind],
        "per_layer": layers,
        "samples": samples,
        "spec": repr(spec),
    }

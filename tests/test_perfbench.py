"""Guards the names the benchmark's tracer patches in the package."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from mswavenet import autodiff, data, graph, model, pipeline, synthetic, training
from mswavenet.data import MinMaxScaler, make_windows
from mswavenet.model import SINGLE_SCALE, ModelConfig, Network

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
MODULES = (autodiff, data, graph, model, pipeline, synthetic, training)
CLASSES = [
    value for module in MODULES for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == module.__name__
]


def _module(path, name, imports=()):
    """A perfbench module, compiled from its source text, so no bytecode
    cache is written beside it. While it runs, sys.modules holds it (its
    dataclasses look it up) and the (name, module) pairs of imports."""
    module = types.ModuleType(name)
    named = {name: module, **dict(imports)}
    sys.modules.update(named)
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:  # only these: a package module the source imported stays imported
        for key in named:
            del sys.modules[key]
    return module


def _tracing():
    return _module(TRACING, "perfbench_tracing")


def _workloads():
    """perfbench/workloads.py, which imports tracing.py as a top-level
    module, as perfbench/run.py runs it."""
    return _module(WORKLOADS, "perfbench_workloads", [("tracing", _tracing())])


def _owner_name(owner):
    return f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__


def _attributes():
    """(owner, name) -> value of every attribute of the package's modules
    and of the classes they define."""
    return {
        (_owner_name(owner), name): value
        for owner in MODULES + tuple(CLASSES)
        for name, value in vars(owner).items()
    }


def test_traced_ops_exist_in_autodiff():
    """perfbench/tracing.py wraps each op in _OPS (and counts the FLOP of
    each in _GEMM_FLOP) by name; one missing from autodiff breaks
    ``--trace 1``."""
    tracing = _tracing()
    names = set(tracing._OPS) | set(tracing._GEMM_FLOP)
    missing = sorted(n for n in names if not callable(getattr(autodiff, n, None)))
    assert not missing, f"perfbench/tracing.py traces ops autodiff no longer has: {missing}"


@pytest.mark.parametrize("variant", [model.MULTI_SCALE, SINGLE_SCALE])
def test_every_parameter_maps_to_a_reported_layer(variant):
    """The tracer labels a parameter's ops with _layer_of_param(name), and
    reports per-layer times only for workloads.LAYERS and the adjacency: a
    parameter renamed out of those would silently zero its layer's
    metrics."""
    layer_of, reported = _tracing()._layer_of_param, {*_workloads().LAYERS, "graph.adjacency"}
    names = [name for name, _ in Network(ModelConfig(variant=variant)).parameters()]
    assert [n for n in names if layer_of(n) not in reported] == []
    assert {layer_of(n) for n in names} == reported  # and every layer has a parameter


def test_every_hook_installs_and_restores_by_identity():
    """Each level replaces every attribute it patches by name, and puts
    back the very object it found on exit. The full trace skips a data
    layer function it does not find, so those are named here."""
    tracer = _tracing().Tracer()
    data_layer = {
        (module, name) for module in ("mswavenet.data", "mswavenet.pipeline")
        for name in ("load_station_csv", "assemble", "make_windows")
    }
    for level, required in ((tracer.light, set()), (tracer.full, data_layer)):
        before = _attributes()
        with level():
            during = _attributes()
            patched = {(_owner_name(owner), attr) for owner, attr, _ in tracer._saved}
        changed = {key for key, value in before.items() if during.get(key) is not value}
        assert patched and changed == patched and required <= patched, level.__name__
        after = _attributes()
        assert after.keys() == before.keys(), level.__name__
        assert all(after[key] is value for key, value in before.items()), level.__name__
    assert not tracer._saved


def test_scaler_call_shapes_of_the_serve_workload():
    """The serve workload maps a forecast one value at a time,
    invert_wind_speed(out[j], n) with a numpy scalar and an int node, and
    its loss one column at a time, normalize_wind_speed(column, n) with a
    1-D column. Both give what the one-call maps of every target give;
    node 1 has a constant range."""
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 20, size=(30, 4, 2))
    raw[:, data.WIND_SPEED, 1] = 6.0
    scaler = MinMaxScaler.fit(raw)
    out = np.array([0.25, 0.75])
    speeds = raw[:, data.WIND_SPEED]
    for n in (0, 1):
        value = scaler.invert_wind_speed(out[n], n)
        assert np.ndim(value) == 0
        assert float(value) == scaler.invert_wind_speed(out, [0, 1])[n]
        column = scaler.normalize_wind_speed(speeds[:, n], n)
        assert column.shape == (30,)
        assert column.tobytes() == scaler.normalize_wind_speed(speeds, [0, 1])[:, n].tobytes()


def test_evaluate_is_captured_once(tmp_path):
    """The serve workload pops one forecast array per evaluate() from the
    light probe, so evaluate() must reach predict_physical through the
    module, where the probe is installed; the full trace wraps the
    network's forward."""
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 20, size=(30, 4, 2))
    scaler = MinMaxScaler.fit(raw)
    dataset = make_windows(scaler.apply(raw), raw, 8, 2, [0, 1])
    config = ModelConfig(
        variant=SINGLE_SCALE, num_blocks=1, residual_channels=2, skip_channels=2,
        head_channels=(2, 2), branch_specs=[[(2, 1)]], embedding_width=2, window=8, horizon=2,
        num_nodes=2, target_nodes=[0, 1],
    )
    net = Network(config, seed=3)
    path = tmp_path / "ck.bin"
    training.Checkpoint(
        params=net.state_dict(), config=config.to_dict(), scaler=scaler.state(), seed=3,
        epoch=0, val_loss=0.0,
    ).save(path)
    tracer = _tracing().Tracer()
    with tracer.light(), tracer.full():
        metrics = training.evaluate(training.Checkpoint.load(path), dataset, scaler)
    assert len(tracer.captured) == 1
    (pred,) = tracer.captured
    assert pred.shape == dataset.targets.shape
    assert metrics.mse == float(((pred - dataset.targets) ** 2).mean())
    names = {span[0] for span in tracer.spans}
    assert {"model.forward", "training.checkpoint_load"} <= names


_LANES = """
import numpy as np
from mswavenet import autodiff as ad
from mswavenet.model import ModelConfig, Network
lanes = []
each_half = ad._each_half
def counted(task):
    lanes.append(1 + ad._second_lane())
    each_half(task)
ad._each_half = counted
Network(ModelConfig()).forward(np.zeros((64, 4, 5, 48)))
print(max(lanes, default=1))
"""


def _lanes(run, threads):
    """Lanes a paper-size training batch of 64 takes in a fresh process
    whose BLAS environment is pinned as perfbench/run.py (module run) pins
    it, to this many threads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(threads) for var in run.BLAS_ENV})
    out = subprocess.run([sys.executable, "-c", _LANES], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="two lanes need at least 2 CPUs")
def test_the_benchmark_runs_two_lanes():
    """perfbench/run.py pins BLAS to one thread, so on 2 CPUs a paper-size
    batch runs its two halves on two lanes; with two BLAS threads the
    halves take one lane in turn."""
    run = _module(RUN, "perfbench_run")
    assert _lanes(run, run.BLAS_THREADS) == 2
    assert _lanes(run, 2) == 1

"""Graph-coupled autoregressive generator with a known coupling matrix.

The driven channel follows x_t = rho * A_true @ x_{t-1} + eps_t and is
emitted as wind speed after an affine shift into positive m/s range. The
known generator supports two oracle checks: a cheating forecast using the
true dynamics (Bayes floor) and an argmax-level adjacency-recovery score
against a trained model's learned adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .config import ConfigError, finite_number, int_at_least
from .data import StationSeries


class SyntheticSpecError(ConfigError):
    pass


# the default true_adjacency is built dense when a spec is checked: 8 MB at this size
MAX_NODES = 1024


@dataclass
class SyntheticSpec:
    num_nodes: int = 5
    true_adjacency: np.ndarray = None  # row-stochastic [N, N]; None: GRAPHS[graph]
    ar_coefficient: float = 0.9
    noise_std: float = 0.1
    length: int = 2000
    seed: int = 0
    shift: float = 10.0  # moves the driven channel into positive m/s range
    start: datetime = field(
        default_factory=lambda: datetime(2000, 1, 1, tzinfo=timezone.utc)
    )
    graph: str = "cycle"  # names the builder of the default true_adjacency

    def __post_init__(self):
        """Check every field; errors name the field."""
        for name, low in (("num_nodes", 1), ("length", 1), ("seed", 0)):
            value = getattr(self, name)
            if not int_at_least(value, low):
                raise SyntheticSpecError(f"must be an int >= {low}, got {value!r}", name)
        if self.num_nodes > MAX_NODES:
            raise SyntheticSpecError(
                f"must be at most {MAX_NODES}, got {self.num_nodes}", "num_nodes"
            )
        for name in ("ar_coefficient", "noise_std", "shift"):
            value = getattr(self, name)
            if not finite_number(value):
                raise SyntheticSpecError(f"must be a finite number, got {value!r}", name)
        if not 0.0 < self.ar_coefficient < 1.0:
            raise SyntheticSpecError("must lie in (0, 1) for stability", "ar_coefficient")
        if self.noise_std < 0.0:
            raise SyntheticSpecError("must be >= 0", "noise_std")
        if self.graph not in tuple(GRAPHS):
            raise SyntheticSpecError(f"unknown graph {self.graph!r}", "graph")
        if self.true_adjacency is None:
            self.true_adjacency = GRAPHS[self.graph](self.num_nodes)
        self.true_adjacency = np.asarray(self.true_adjacency, dtype=np.float64)
        if self.true_adjacency.shape != (self.num_nodes, self.num_nodes):
            raise SyntheticSpecError("must be N x N", "true_adjacency")
        if not np.allclose(self.true_adjacency.sum(axis=1), 1.0, atol=1e-9):
            raise SyntheticSpecError("rows must sum to 1", "true_adjacency")


def cycle_adjacency(n: int, self_weight: float = 0.3) -> np.ndarray:
    """Directed cycle: node i driven mostly by node i-1 (a single node is
    its own predecessor and gets the full weight)."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = self_weight
        a[i, (i - 1) % n] += 1.0 - self_weight
    return a


def chain_adjacency(n: int, self_weight: float = 0.3) -> np.ndarray:
    """Chain: node i driven by node i-1; node 0 only by itself."""
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    for i in range(1, n):
        a[i, i] = self_weight
        a[i, i - 1] = 1.0 - self_weight
    return a


GRAPHS = {"cycle": cycle_adjacency, "chain": chain_adjacency}


def _simulate_driven(spec: SyntheticSpec, rng) -> np.ndarray:
    """[L, N] trajectory of the centered AR process."""
    coupling = spec.ar_coefficient * spec.true_adjacency
    x = np.empty((spec.length, spec.num_nodes))
    x[0] = rng.normal(0.0, 1.0, size=spec.num_nodes)
    noise = rng.normal(0.0, spec.noise_std, size=(spec.length - 1, spec.num_nodes))
    for t in range(1, spec.length):
        x[t] = coupling @ x[t - 1] + noise[t - 1]
    return x


def generate(spec: SyntheticSpec) -> list:
    """Emit one StationSeries per node; deterministic under spec.seed.

    Channels: wind_speed is the shifted driven channel; temperature is a
    one-hour lagged copy, pressure the node-mean of the driven channel,
    wind_direction independent uniform noise. The mix gives the model both
    usable and useless features.
    """
    rng = np.random.default_rng(spec.seed)
    x = _simulate_driven(spec, rng)
    wind = x + spec.shift
    lagged = np.vstack([wind[:1], wind[:-1]])
    node_mean = np.repeat(wind.mean(axis=1, keepdims=True), spec.num_nodes, axis=1)
    direction = rng.uniform(0.0, 360.0, size=wind.shape)
    timestamps = [spec.start + timedelta(hours=i) for i in range(spec.length)]
    series = []
    for j in range(spec.num_nodes):
        features = np.stack(
            [lagged[:, j], node_mean[:, j], wind[:, j], direction[:, j]], axis=1
        )
        series.append(StationSeries(f"node{j}", list(timestamps), features))
    return series


def oracle_forecast(spec: SyntheticSpec, wind_now: np.ndarray, horizon: int) -> np.ndarray:
    """E[wind_{t+T} | wind_t] from the true dynamics (cheating oracle)."""
    coupling = np.linalg.matrix_power(
        spec.ar_coefficient * spec.true_adjacency, horizon
    )
    return coupling @ (np.asarray(wind_now) - spec.shift) + spec.shift


@dataclass
class RecoveryScore:
    score: float  # fraction of rows with matching off-diagonal argmax
    degenerate: bool  # any row decided by the tie rule


def adjacency_recovery_score(learned: np.ndarray, true_adjacency: np.ndarray) -> RecoveryScore:
    """Row-wise off-diagonal argmax agreement; ties go to the lowest index
    and flag the result as degenerate."""
    learned = np.asarray(learned, dtype=np.float64)
    true_adjacency = np.asarray(true_adjacency, dtype=np.float64)
    if learned.shape != true_adjacency.shape:
        raise SyntheticSpecError("matrices must share shape and node order")
    n = learned.shape[0]
    hits = 0
    degenerate = False
    for i in range(n):
        best_learned, deg_l = _offdiag_argmax(learned[i], i)
        best_true, deg_t = _offdiag_argmax(true_adjacency[i], i)
        degenerate = degenerate or deg_l or deg_t
        if best_learned == best_true:
            hits += 1
    return RecoveryScore(score=hits / n, degenerate=degenerate)


def _offdiag_argmax(row: np.ndarray, diag: int):
    masked = row.copy()
    masked[diag] = -np.inf
    best = int(np.argmax(masked))  # argmax takes the lowest index on ties
    ties = int((masked == masked[best]).sum())
    return best, ties > 1

"""Run configuration: flat dotted keys from a config file plus overrides.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Every key has a typed default below; overrides are applied with
``--set key=value`` on the command line.
"""

from __future__ import annotations

import warnings

DEFAULTS = {
    "data.dir": "",
    "data.node_order": "Esbjerg,Aalborg,Aarhus,Odense,Roskilde",
    "data.target_nodes": "Esbjerg,Odense,Roskilde",
    "data.max_gap_hours": 3,
    "split.train_years": "2000-2008",
    "split.val_years": "2009",
    "split.test_years": "2010",
    "model.variant": "multi_scale",
    "model.num_blocks": 4,
    "model.residual_channels": 32,
    "model.skip_channels": 64,
    "model.embedding_width": 10,
    "model.window": 48,
    "model.horizon": 6,
    "train.lr": 0.001,
    "train.epochs": 50,
    "train.batch_size": 64,
    "train.factor": 0.7,
    "train.patience": 3,
    "seed": 0,
    "out.dir": "runs",
    "synth.nodes": 5,
    "synth.length": 2000,
    "synth.rho": 0.9,
    "synth.sigma": 0.1,
    "synth.shift": 10.0,
    "synth.graph": "cycle",
}

STANDARD_HORIZONS = (6, 12, 18, 24)


class ConfigError(ValueError):
    pass


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config_file(path) -> dict:
    values = {}
    errors = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                errors.append(f"line {line_no}: expected 'key = value', got {line!r}")
                continue
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in DEFAULTS:
                errors.append(f"line {line_no}: unknown key {key!r}")
                continue
            try:
                values[key] = _coerce(key, raw)
            except ConfigError as exc:
                errors.append(f"line {line_no}: {exc}")
    if errors:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(errors))
    return values


def apply_overrides(values: dict, overrides) -> dict:
    """Apply repeatable --set key=value pairs; all errors reported at once."""
    out = dict(values)
    errors = []
    for item in overrides or []:
        if "=" not in item:
            errors.append(f"--set {item!r}: expected key=value")
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            errors.append(f"--set: unknown key {key!r}")
            continue
        try:
            out[key] = _coerce(key, raw.strip())
        except ConfigError as exc:
            errors.append(f"--set {key}: {exc}")
    if errors:
        raise ConfigError("\n".join(errors))
    return out


class RunConfig:
    """Validated flat key/value run configuration."""

    def __init__(self, values: dict = None):
        self.values = dict(DEFAULTS)
        if values:
            unknown = set(values) - set(DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown keys: {sorted(unknown)}")
            self.values.update(values)
        self.validate()

    def __getitem__(self, key):
        return self.values[key]

    def validate(self):
        errors = []
        v = self.values
        if v["train.lr"] <= 0:
            errors.append("train.lr must be positive")
        if v["train.epochs"] < 1:
            errors.append("train.epochs must be >= 1")
        if v["train.batch_size"] < 1:
            errors.append("train.batch_size must be >= 1")
        if not 0 < v["train.factor"] < 1:
            errors.append("train.factor must lie in (0, 1)")
        if v["train.patience"] < 1:
            errors.append("train.patience must be >= 1")
        if v["model.horizon"] < 1:
            errors.append("model.horizon must be >= 1")
        if v["model.window"] < 1:
            errors.append("model.window must be >= 1")
        for key in ("model.num_blocks", "model.residual_channels", "model.skip_channels",
                    "model.embedding_width"):
            if v[key] < 1:
                errors.append(f"{key} must be >= 1")
        if v["model.variant"] not in ("single_scale", "multi_scale"):
            errors.append(f"model.variant {v['model.variant']!r} unknown")
        if v["synth.graph"] not in ("cycle", "chain"):
            errors.append(f"synth.graph {v['synth.graph']!r} unknown")
        nodes = self.node_order()
        targets = self.target_node_names()
        bad = [t for t in targets if t not in nodes]
        if bad:
            errors.append(f"target nodes not in node order: {bad}")
        if errors:
            raise ConfigError("\n".join(errors))
        if v["model.horizon"] not in STANDARD_HORIZONS:
            warnings.warn(
                f"horizon {v['model.horizon']} is outside the usual {STANDARD_HORIZONS}",
                RuntimeWarning,
                stacklevel=2,
            )

    def node_order(self):
        return [n.strip() for n in self.values["data.node_order"].split(",") if n.strip()]

    def target_node_names(self):
        return [n.strip() for n in self.values["data.target_nodes"].split(",") if n.strip()]

    def target_node_indices(self):
        order = self.node_order()
        return [order.index(n) for n in self.target_node_names()]

    def years(self, key):
        """Parse '2000-2008' / '2009,2010' style year lists."""
        out = []
        text = self.values[key].strip()
        if not text:
            return out
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, _, hi = part.partition("-")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
        return out

    def model_config(self):
        from .model import ModelConfig

        v = self.values
        return ModelConfig(
            variant=v["model.variant"],
            num_blocks=v["model.num_blocks"],
            residual_channels=v["model.residual_channels"],
            skip_channels=v["model.skip_channels"],
            embedding_width=v["model.embedding_width"],
            window=v["model.window"],
            horizon=v["model.horizon"],
            num_nodes=len(self.node_order()),
            num_features=4,
            target_nodes=self.target_node_indices(),
        )

    def to_dict(self) -> dict:
        return dict(self.values)

    def echo_lines(self):
        """Config rendered as comment lines for embedding in artifacts."""
        return [f"# {k} = {self.values[k]}" for k in sorted(self.values)]


def load_run_config(config_path=None, overrides=None, seed=None) -> RunConfig:
    values = parse_config_file(config_path) if config_path else {}
    values = apply_overrides(values, overrides)
    if seed is not None:
        values["seed"] = int(seed)
    return RunConfig(values)

"""Run configuration: flat dotted keys from a config file plus overrides.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Every key has a typed default below; overrides are applied with
``--set key=value`` on the command line.
"""

from __future__ import annotations

import io
import math
import re
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


# synth.* key (and the run seed) -> the SyntheticSpec field it sets
SYNTH_FIELDS = {
    "synth.nodes": "num_nodes",
    "synth.length": "length",
    "synth.rho": "ar_coefficient",
    "synth.sigma": "noise_std",
    "synth.shift": "shift",
    "synth.graph": "graph",
    "seed": "seed",
}
# how errors name the ModelConfig fields set from the station lists; every
# other field is set by the model.<field> key of its name
_STATION_FIELDS = {
    "num_nodes": "data.node_order (its length)",
    "target_nodes": "data.target_nodes (as indices)",
}


class ConfigError(ValueError):
    """A setting that cannot be used: ``key`` names it when one setting is
    at fault, and ``reason`` says what is wrong with it."""

    def __init__(self, reason, key=None):
        super().__init__(f"{key}: {reason}" if key else reason)
        self.key = key
        self.reason = reason


def int_at_least(value, low: int) -> bool:
    """True for an int >= low; a bool is not an int here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def finite_number(value) -> bool:
    """True for an int or a finite float; a bool is neither here."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _type_problem(key, value):
    """Why value cannot stand for key, or None: a value must be an instance
    of its default's type, where an int may stand for a float, a bool
    stands for neither, and a float must be finite."""
    kind = type(DEFAULTS[key])
    if kind is float:
        return None if finite_number(value) else f"expected a finite number, got {value!r}"
    if isinstance(value, kind) and not isinstance(value, bool):
        return None
    return f"expected {kind.__name__}, got {value!r}"


def _check(build, key_of, errors) -> None:
    """Build a component of the run; record its ConfigError as a line naming
    key_of(field), the run key that sets the faulty field."""
    try:
        build()
    except ConfigError as exc:
        errors.append(f"{key_of(exc.key)}: {exc.reason}")


def read_utf8(path, error) -> str:
    """Text of the file at path; bytes that are not UTF-8 raise ``error``
    naming the file and the line."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def _assign(values: dict, errors: list, where: str, item: str) -> None:
    """Store one ``key = value`` item in values, or record an error naming where."""
    key, eq, raw = item.partition("=")
    key = key.strip()
    if not eq:
        errors.append(f"{where}: expected 'key = value', got {item!r}")
    elif key not in DEFAULTS:
        errors.append(f"{where}: unknown key {key!r}")
    else:
        try:
            values[key] = type(DEFAULTS[key])(raw.strip())
        except ValueError as exc:
            errors.append(f"{where}: {key}: {exc}")


def parse_config_file(path) -> dict:
    values = {}
    errors = []
    text = read_utf8(path, ConfigError)
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            _assign(values, errors, f"line {line_no}", line)
    if errors:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(errors))
    return values


def apply_overrides(values: dict, overrides) -> dict:
    """Apply repeatable --set key=value pairs; all errors reported at once."""
    out = dict(values)
    errors = []
    for item in overrides or []:
        _assign(out, errors, f"--set {item!r}", item)
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
        v = self.values
        errors = [f"{k}: {why}" for k in sorted(v) if (why := _type_problem(k, v[k]))]
        if errors:
            raise ConfigError("\n".join(errors))
        from .training import check_recipe  # each train.<arg> key sets its argument
        recipe = {k[len("train."):]: x for k, x in v.items() if k.startswith("train.")}
        _check(lambda: check_recipe(**recipe), lambda f: f"train.{f}", errors)
        if v["data.max_gap_hours"] < 0:
            errors.append("data.max_gap_hours must be >= 0")
        for key in ("split.train_years", "split.val_years", "split.test_years"):
            try:
                self.years(key)
            except ConfigError as exc:
                errors.append(str(exc))
        nodes = self.node_order()
        twice = sorted({n for n in nodes if nodes.count(n) > 1})
        if twice:
            errors.append(f"data.node_order: lists {twice} more than once")
        unknown = [t for t in self.target_node_names() if t not in nodes]
        if unknown:
            errors.append(f"data.target_nodes: {unknown} not in data.node_order")
        else:
            _check(self.model_config, lambda f: _STATION_FIELDS.get(f, f"model.{f}"), errors)
        _check(self.synthetic_spec, {f: k for k, f in SYNTH_FIELDS.items()}.get, errors)
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
            m = re.fullmatch(r"\s*(\d{1,4})\s*(?:-\s*(\d{1,4})\s*)?", part)
            lo, hi = (int(m[1]), int(m[2] or m[1])) if m else (0, 0)
            if not 1 <= lo <= hi:  # datetime years run 1-9999
                raise ConfigError(f"{part.strip()!r} is not a year or an ascending range", key)
            out.extend(range(lo, hi + 1))
        return out

    def model_config(self):
        """The ModelConfig of this run: each model.<field> key sets the field
        of that name, and the station lists set num_nodes and target_nodes."""
        from .model import ModelConfig

        fields = {k[len("model."):]: v for k, v in self.values.items() if k.startswith("model.")}
        return ModelConfig(
            **fields, num_nodes=len(self.node_order()), target_nodes=self.target_node_indices()
        )

    def synthetic_spec(self):
        """The SyntheticSpec of this run, its fields set through SYNTH_FIELDS."""
        from .synthetic import SyntheticSpec

        return SyntheticSpec(**{field: self.values[k] for k, field in SYNTH_FIELDS.items()})

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

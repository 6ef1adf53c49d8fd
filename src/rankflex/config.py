"""Experiment configs: strict JSON parsing, overrides, and echo.

The dataclasses are the schema. A config is the JSON form of a TrainConfig:
one key per dataclass field, nested dataclasses as nested objects, tuples as
arrays, and a missing key takes the field's default. One walker over
``dataclasses.fields`` and the field annotations checks each value's JSON
type, rejects unknown keys at every level so typos fail loudly, and leaves
range checks to each type's ``__post_init__``; ``config_to_json`` is the same
walk in reverse. Every error message carries the dotted path of the
offending field ("config.schedule.b0: must be an integer").

Where the JSON differs from the dataclasses, the tables below say how: the
key a field is stored under, and the choices a string field accepts. An
activation layer is only its ``type``. Dotted-path overrides ("schedule.b0=2",
values parsed as JSON) are applied before validation and recorded in the
effective config, which is itself a valid input: parse -> serialize -> parse
is a fixed point.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import types
import typing

from .adapter import INIT_VARIANTS, InitStrategy
from .allocator import ALLOCATOR_MODES
from .errors import ConfigError, ParameterError, read_text
from .importance import METRIC_VARIANTS, MetricKind
from .model import ACTIVATION_KINDS, LOSS_KINDS, AdapterSpec, LayerSpec
from .tasks import TASK_KINDS, SyntheticTask
from .training import TrainConfig

__all__ = [
    "SCHEMA_VERSION",
    "parse_config",
    "config_to_json",
    "load_config_file",
    "apply_overrides",
]

SCHEMA_VERSION = 1

# JSON key of each field stored under another name. TrainConfig's loss and
# layers sit in the config's "model" object, which parse_config flattens.
_KEYS = {
    (TrainConfig, "loss"): "model.loss",
    (TrainConfig, "layers"): "model.layers",
    (LayerSpec, "kind"): "type",
    (AdapterSpec, "adapter_id"): "id",
}

# Values a string field accepts, checked here so the error names the field.
_CHOICES = {
    (TrainConfig, "loss"): LOSS_KINDS,
    (TrainConfig, "mode"): ALLOCATOR_MODES,
    (LayerSpec, "kind"): ("linear",) + ACTIVATION_KINDS,
    (SyntheticTask, "kind"): TASK_KINDS,
    (MetricKind, "variant"): METRIC_VARIANTS,
    (InitStrategy, "variant"): INIT_VARIANTS,
}


def _expect_dict(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    return obj


@functools.cache
def _schema(cls, activation=False):
    """(name, JSON key, annotation, required, choices) for each field of ``cls``.

    Cached: resolving the annotations costs far more than a whole parse. An
    activation layer carries only its kind.
    """
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return tuple(
        (f.name, _KEYS.get((cls, f.name), f.name), hints[f.name],
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
         _CHOICES.get((cls, f.name)))
        for f in (fields[:1] if activation else fields)
    )


def _from_json(tp, value, path, choices=None):
    """Check ``value`` against the annotation ``tp`` and build it."""
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: must be an integer")
    elif tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
    elif tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: must be a string")
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: must be one of {', '.join(choices)}")
    elif tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: must be a boolean")
    elif dataclasses.is_dataclass(tp):
        return _dataclass_from_json(tp, value, path)
    elif typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: must be an array")
        item = typing.get_args(tp)[0]
        return tuple(_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    elif value is not None:  # the one annotation left: X | None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not types.NoneType]
        return _from_json(tp, value, path)
    return value


def _dataclass_from_json(cls, obj, path):
    _expect_dict(obj, path)
    schema = _schema(cls, cls is LayerSpec and obj.get("type") in ACTIVATION_KINDS)
    keys = {key for _, key, _, _, _ in schema}
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown field")
    kwargs = {}
    for name, key, tp, required, choices in schema:
        if key in obj:
            kwargs[name] = _from_json(tp, obj[key], f"{path}.{key}", choices)
        elif required:
            raise ConfigError(f"{path}.{key}: missing required field")
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _to_json(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    schema = _schema(type(value), type(value) is LayerSpec and value.kind != "linear")
    return {key: _to_json(getattr(value, name)) for name, key, *_ in schema}


def parse_config(obj):
    """Validate a raw JSON object into a TrainConfig."""
    raw = dict(_expect_dict(obj, "config"))
    version = _from_json(int, raw.pop("schema_version", SCHEMA_VERSION), "config.schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    raw.pop("applied_overrides", None)
    for key in raw:  # a dotted key could pose as a flattened "model." key
        if "." in key:
            raise ConfigError(f"config.{key}: unknown field")
    if "model" in raw:
        model = _expect_dict(raw.pop("model"), "config.model")
        raw.update({f"model.{key}": value for key, value in model.items()})
    config = _dataclass_from_json(TrainConfig, raw, "config")
    # A config caps r_max at the layer's smaller side whatever the init
    # variant; the Python API allows more where the expansion can use it.
    for i, spec in enumerate(config.layers):
        if spec.adapter is not None and spec.adapter.r_max > min(spec.d_in, spec.d_out):
            raise ConfigError(
                f"config.model.layers[{i}].adapter.r_max: must be <= min(d_in, d_out)")
    return config


def config_to_json(config, applied_overrides=()):
    """Effective config with every default materialized."""
    out = _to_json(config)
    out["model"] = {"loss": out.pop("model.loss"), "layers": out.pop("model.layers")}
    out["schema_version"] = SCHEMA_VERSION
    out["applied_overrides"] = list(applied_overrides)
    return out


def apply_overrides(obj, overrides):
    """Apply dotted-path KEY=VALUE overrides to a raw config dict.

    Values are parsed as JSON with a bare-string fallback; intermediate
    containers must already exist so typos cannot invent new sections.
    List elements are addressed numerically ("model.layers.0.d_in=8").
    """
    try:
        result = copy.deepcopy(obj)
    except RecursionError:
        raise ConfigError("config: nested too deeply to apply overrides") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected KEY=VALUE")
        key, raw_value = item.split("=", 1)
        if not key:
            raise ConfigError(f"override {item!r}: empty key")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        parts = key.split(".")
        target = result
        for i, part in enumerate(parts[:-1]):
            where = ".".join(parts[: i + 1])
            if isinstance(target, list):
                try:
                    target = target[int(part)]
                except (ValueError, IndexError):
                    raise ConfigError(f"override {key!r}: bad list index at {where}") from None
            elif isinstance(target, dict):
                if part not in target:
                    raise ConfigError(f"override {key!r}: no such section {where}")
                target = target[part]
            else:
                raise ConfigError(f"override {key!r}: {where} is not a container")
        leaf = parts[-1]
        if isinstance(target, list):
            try:
                target[int(leaf)] = value
            except (ValueError, IndexError):
                raise ConfigError(f"override {key!r}: bad list index {leaf!r}") from None
        elif isinstance(target, dict):
            target[leaf] = value
        else:
            raise ConfigError(f"override {key!r}: target is not a container")
    return result


def load_config_file(path):
    text = read_text(path, ConfigError, "config file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None

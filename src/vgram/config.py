"""Flat key-value configuration with CLI overrides and digests.

Config files are plain text, one ``key = value`` per line, ``#``
comments; precedence is CLI ``--set key=value`` > file > defaults. A
key that sets a field of ``TrainSettings``, ``ModelConfig`` or
``SynthConfig`` is named after it (see ``_RENAMED``) and its default is
the field's; the model's input dims come from the input files and have
no key. The digest of the resolved configuration is stamped into
checkpoints and logs so a run can be reproduced from its artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional

from vgram.data import SynthConfig
from vgram.model import ModelConfig
from vgram.train import TrainSettings

# The model fields the input files fix, given to `to_model_config`.
_INPUT_DIMS = ("tag_count", "word_dim", "feat_dim")

# Keys other than the field's name, ``synth_``-prefixed for SynthConfig.
_RENAMED = {"lambda_cl": "lambda", "synth_tag_count": "synth_tags",
            "synth_dev_sentences": "synth_dev",
            "synth_test_sentences": "synth_test", "synth_seed": "seed"}

# Each settings class with its keys, each key with the field it sets.
_KEYS: dict[type, dict[str, str]] = {
    cls: {_RENAMED.get(prefix + f.name, prefix + f.name): f.name
          for f in dataclasses.fields(cls) if f.name not in skip}
    for cls, prefix, skip in ((TrainSettings, "", ()),
                              (ModelConfig, "", _INPUT_DIMS),
                              (SynthConfig, "synth_", ()))}

DEFAULTS: dict[str, object] = {
    "workers": 1,
    # evaluation
    "root_undirected": True,
    "exclude_punct": False,
    **{key: getattr(cls, name) for cls, keys in _KEYS.items()
       for key, name in keys.items()},
}

PUNCT_TAGS = {".", ",", ":", "``", "''", "-LRB-", "-RRB-", "HYPH", "SYM", "PUNCT"}


class ConfigError(Exception):
    pass


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            out[key.strip()] = value.strip()
    return out


def resolve(file_path: Optional[str] = None,
            overrides: Optional[dict[str, str]] = None) -> dict[str, object]:
    """Defaults, then the config file, then CLI overrides."""
    cfg = dict(DEFAULTS)
    for source in (parse_config_file(file_path) if file_path else {},
                   overrides or {}):
        for key, raw in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")
            cfg[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    return cfg


def check_model_keys(cfg: dict[str, object]) -> None:
    """Raise ConfigError on a conflict among the model's config keys
    alone, for commands that build a model to call before they load any
    input. The word and feature dims come from the input files, which
    the model checks against these when it is built."""
    if cfg["identity_init"] and cfg["hidden_dim"] != cfg["match_dim"]:
        raise ConfigError(f"identity_init needs hidden_dim == match_dim, got "
                          f"{cfg['hidden_dim']} and {cfg['match_dim']}")


def digest(cfg: dict[str, object]) -> str:
    """Stable short digest of a resolved configuration. The worker count
    changes no model and no output, so it enters at its default and a
    checkpoint loads at any worker count."""
    cfg = {**cfg, "workers": DEFAULTS["workers"]}
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def _build(cls: type, cfg: dict[str, object], **given):
    """``cls`` with each keyed field from ``cfg``, cast to its default's
    type, and the other fields from ``given``."""
    fields = {name: type(DEFAULTS[key])(cfg[key]) for key, name in _KEYS[cls].items()}
    return cls(**fields, **given)


def to_model_config(cfg: dict[str, object], tag_count: int, word_dim: int,
                    feat_dim: int) -> ModelConfig:
    return _build(ModelConfig, cfg, tag_count=tag_count, word_dim=word_dim,
                  feat_dim=feat_dim)


def to_train_settings(cfg: dict[str, object]) -> TrainSettings:
    settings = _build(TrainSettings, cfg)
    if not 0.0 <= settings.lambda_cl <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {settings.lambda_cl}")
    return settings


def to_synth_config(cfg: dict[str, object]) -> SynthConfig:
    synth = _build(SynthConfig, cfg)
    try:
        synth.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return synth

"""Flat key-value configuration with CLI overrides and digests.

Config files are plain text, one ``key = value`` per line, ``#``
comments. Every key has a default here and a ``--set key=value`` CLI
override; precedence is CLI > file > defaults. The digest of the
resolved configuration is stamped into checkpoints and logs so a run
can be reproduced from its artifacts.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from vgram.data import SynthConfig
from vgram.model import ModelConfig
from vgram.train import TrainSettings

DEFAULTS: dict[str, object] = {
    # optimization
    "lambda": 0.5,
    "lr": 1e-3,
    "batch_size": 16,
    "epochs": 10,
    "harmonic_warmup_epochs": 1,
    "grad_clip": 5.0,
    "seed": 0,
    "workers": 1,
    "max_train_len": 20,
    "max_parse_len": 60,
    # model
    "tag_dim": 16,
    "hidden_dim": 32,
    "match_dim": 32,
    "arc_hidden": 32,
    "second_hidden": 32,
    "dec_tag_dim": 16,
    "dec_hidden": 32,
    "normalize_sim": True,
    "identity_init": False,
    "finetune_word_emb": False,
    "second_order": True,
    # alignment
    "topk_align": 1,
    # evaluation
    "root_undirected": True,
    "exclude_punct": False,
    # synthetic data
    "synth_tags": 8,
    "synth_concentration": 0.05,
    "synth_sentences": 2000,
    "synth_dev": 200,
    "synth_test": 200,
    "synth_max_len": 10,
    "synth_min_len": 3,
    "synth_dim": 32,
    "synth_sigma": 0.1,
    "synth_distractors": 2,
    "synth_words_per_tag": 30,
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


def digest(cfg: dict[str, object]) -> str:
    """Stable short digest of a resolved configuration."""
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def to_model_config(cfg: dict[str, object], tag_count: int, word_dim: int,
                    feat_dim: int) -> ModelConfig:
    return ModelConfig(
        tag_count=tag_count, word_dim=word_dim, feat_dim=feat_dim,
        tag_dim=int(cfg["tag_dim"]), hidden_dim=int(cfg["hidden_dim"]),
        match_dim=int(cfg["match_dim"]), arc_hidden=int(cfg["arc_hidden"]),
        second_hidden=int(cfg["second_hidden"]),
        dec_tag_dim=int(cfg["dec_tag_dim"]), dec_hidden=int(cfg["dec_hidden"]),
        normalize_sim=bool(cfg["normalize_sim"]),
        identity_init=bool(cfg["identity_init"]),
        finetune_word_emb=bool(cfg["finetune_word_emb"]),
        second_order=bool(cfg["second_order"]),
        max_parse_len=int(cfg["max_parse_len"]), seed=int(cfg["seed"]))


def to_train_settings(cfg: dict[str, object]) -> TrainSettings:
    lam = float(cfg["lambda"])
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    return TrainSettings(
        lr=float(cfg["lr"]), batch_size=int(cfg["batch_size"]), epochs=int(cfg["epochs"]),
        harmonic_warmup_epochs=int(cfg["harmonic_warmup_epochs"]),
        grad_clip=float(cfg["grad_clip"]), lambda_cl=lam,
        max_train_len=int(cfg["max_train_len"]), seed=int(cfg["seed"]))


def to_synth_config(cfg: dict[str, object]) -> SynthConfig:
    synth = SynthConfig(
        tag_count=int(cfg["synth_tags"]),
        concentration=float(cfg["synth_concentration"]),
        sentences=int(cfg["synth_sentences"]), dev_sentences=int(cfg["synth_dev"]),
        test_sentences=int(cfg["synth_test"]), max_len=int(cfg["synth_max_len"]),
        min_len=int(cfg["synth_min_len"]),
        dim=int(cfg["synth_dim"]), sigma=float(cfg["synth_sigma"]),
        distractors=int(cfg["synth_distractors"]),
        words_per_tag=int(cfg["synth_words_per_tag"]), seed=int(cfg["seed"]))
    try:
        synth.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return synth

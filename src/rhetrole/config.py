"""Run configuration: defaults, the three built-in run presets, and the
flags > file > preset resolution used by the CLI.

``RunConfig`` extends ``TrainConfig`` with the run's own fields, and
construction checks every rule: each field's type and the training ranges
first, then the choice and cross-field rules. Every ``RunConfig`` that
exists is valid.

A resolved config written next to a checkpoint is a closed description of
the run: feeding it back through ``train --config`` reproduces the training
bit for bit (given the same corpus file).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .corpus import LABELS, SplitSpec
from .embedding import CASINGS, parse_provider_spec
from .errors import ConfigError, _is_real
from .fileio import read_text
from .imbalance import WEIGHT_SCHEMES
from .linear_model import TrainConfig

BALANCE_METHODS = ("loss_weighting", "undersample", "oversample", "none")

# The three submitted runs share every hyperparameter; they differ only in
# casing and in which way the class weights lean.
PRESETS: dict[str, dict[str, Any]] = {
    "run1": {"casing": "cased", "weight_scheme": "inverse_frequency", "balance": "loss_weighting"},
    "run2": {"casing": "uncased", "weight_scheme": "inverse_frequency", "balance": "loss_weighting"},
    "run3": {"casing": "cased", "weight_scheme": "direct_frequency", "balance": "loss_weighting"},
}


@dataclass(frozen=True)
class _RunFields:
    run_id: str = "custom"
    preset: str | None = None
    corpus: str | None = None
    casing: str = "cased"
    weight_scheme: str = "inverse_frequency"
    balance: str = "loss_weighting"
    weight_overrides: dict[str, float] | None = None
    provider: str = "hashed:256"
    max_len: int | None = None  # None: derive from length_percentile_q at train time
    length_percentile_q: float = 0.98
    train_fraction: float = 0.8
    split_mode: str = "sentence_shuffled"


@dataclass(frozen=True)
class RunConfig(TrainConfig, _RunFields):
    """The twelve _RunFields, then TrainConfig's nine: dataclass fields follow
    the reversed MRO, which keeps config.json's key order."""

    def __post_init__(self):
        super().__post_init__()
        if self.casing not in CASINGS:
            raise ConfigError(f"casing must be one of {CASINGS}, got {self.casing!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ConfigError(
                f"weight_scheme must be one of {WEIGHT_SCHEMES}, got {self.weight_scheme!r}"
            )
        if self.balance not in BALANCE_METHODS:
            raise ConfigError(f"balance must be one of {BALANCE_METHODS}, got {self.balance!r}")
        if not 0.0 < self.length_percentile_q <= 1.0:
            raise ConfigError("length_percentile_q must lie in (0, 1]")
        if self.max_len is not None and self.max_len < 1:
            raise ConfigError("max_len must be >= 1 when given")
        if self.weight_overrides is not None:
            if not isinstance(self.weight_overrides, dict):
                raise ConfigError("weight_overrides must map label names to weights")
            for label, value in self.weight_overrides.items():
                if label not in LABELS:
                    raise ConfigError(f"weight override for unknown label {label!r}")
                if not _is_real(value) or value < 0:
                    raise ConfigError(
                        f"weight override for {label!r} must be a finite number >= 0"
                    )
        kind, _, id_casing, _ = parse_provider_spec(self.provider)
        if id_casing is not None:
            raise ConfigError(
                f"provider must be 'hashed:<dim>' or 'precomputed:<path>', got "
                f"{self.provider!r}; casing and max_len are fields of their own"
            )
        if kind == "precomputed":
            # Precomputed vectors are looked up as they are, never tokenised.
            ignored = [f"casing {self.casing!r}"] if self.casing != "cased" else []
            if self.max_len is not None:
                ignored.append(f"max_len {self.max_len}")
            if ignored:
                raise ConfigError(
                    f"{' and '.join(ignored)} given with provider {self.provider!r}: "
                    "casing and max_len apply only to hashed:<dim> providers"
                )
        # The split rules live in SplitSpec.
        self.split_spec()
        # Exactly one balancing method may be active. Loss weighting needs a
        # non-uniform scheme or explicit weights; the other methods must not
        # smuggle in a weighting scheme on the side.
        if self.balance == "loss_weighting":
            if self.weight_scheme == "uniform" and not self.weight_overrides:
                raise ConfigError(
                    "balance=loss_weighting needs a non-uniform weight_scheme "
                    "or explicit weight_overrides"
                )
        else:
            if self.weight_scheme != "uniform" or self.weight_overrides:
                raise ConfigError(
                    f"balance={self.balance} must keep weight_scheme=uniform "
                    "and no weight_overrides (exactly one balancing method)"
                )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(train_fraction=self.train_fraction, seed=self.seed, mode=self.split_mode)


FIELD_NAMES = frozenset(f.name for f in fields(RunConfig))


def resolve_config(
    preset: str | None = None,
    file_config: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> RunConfig:
    """Layer defaults < preset < config file < explicit flag overrides.

    A config file may itself name a preset; an explicit ``preset`` argument
    wins over that.
    """
    file_config = dict(file_config or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    # A resolved config also carries informational outputs of its run.
    for key in ("resolved_class_weights", "resolved_provider_id"):
        file_config.pop(key, None)

    preset_name = preset or file_config.get("preset")
    merged: dict[str, Any] = {}
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}; expected one of {sorted(PRESETS)}")
        merged.update(PRESETS[preset_name], run_id=preset_name)
    merged.update(file_config)
    if preset_name is not None:
        merged["preset"] = preset_name
    merged.update(overrides)

    # Anything else unknown is a typo and must not be dropped silently.
    unknown = set(merged) - FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**merged)


def config_to_json(
    cfg: RunConfig,
    resolved_weights: Mapping[str, float],
    resolved_max_len: int | None,
    resolved_provider_id: str,
) -> str:
    """Resolved-config JSON. The resolved_* entries are informational
    outputs of the run; re-running re-derives them from the same inputs.
    ``resolved_max_len`` is None when the provider does not tokenise."""
    doc = asdict(cfg)
    if resolved_max_len is not None:
        doc["max_len"] = resolved_max_len
    doc["resolved_class_weights"] = dict(resolved_weights)
    doc["resolved_provider_id"] = resolved_provider_id
    return json.dumps(doc, indent=2) + "\n"


def load_config_file(path: str | Path) -> dict[str, Any]:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc

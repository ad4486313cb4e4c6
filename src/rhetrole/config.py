"""Run configuration: defaults, the three built-in run presets, and the
flags > file > preset resolution used by the CLI.

``RunConfig`` holds every setting of one run, in ``config.json``'s key
order, and is the one home of every rule on them. Construction checks each
field's type, then the training ranges and choices, the split rules, and
last the run's choice and cross-field rules. Every ``RunConfig`` that exists
is valid. ``corpus.split`` and ``linear_model.train`` read their fields
from it.

A resolved config written next to a checkpoint is a closed description of
the run: feeding it back through ``train --config`` reproduces the training
bit for bit (given the same corpus file).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .corpus import LABELS, SPLIT_MODES
from .embedding import CASINGS, parse_provider_spec
from .errors import InputError
from .fileio import naming, read_text
from .imbalance import WEIGHT_SCHEMES
from .linear_model import SELECTION_METRICS

BALANCE_METHODS = ("loss_weighting", "undersample", "oversample", "none")

# The three submitted runs share every hyperparameter; they differ only in
# casing and in which way the class weights lean.
PRESETS: dict[str, dict[str, Any]] = {
    "run1": {"casing": "cased", "weight_scheme": "inverse_frequency", "balance": "loss_weighting"},
    "run2": {"casing": "uncased", "weight_scheme": "inverse_frequency", "balance": "loss_weighting"},
    "run3": {"casing": "cased", "weight_scheme": "direct_frequency", "balance": "loss_weighting"},
}


def _is_int(value: object) -> bool:
    """isinstance(value, int) without booleans, which Python counts as integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """An int or float that converts to a finite float. JSON files and flags
    can carry nan, inf and integers beyond float range."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_TYPE_RULES = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
}


def check_field_types(instance: object) -> None:
    """Raise InputError naming the first field of a dataclass instance whose
    value breaks its ``int``, ``float`` or ``str`` annotation, optionally with
    ``| None``. Other annotations are left to the class's own rules. The
    annotations are read as text, which this module's postponed evaluation
    (``from __future__ import annotations``) makes them."""
    for f in fields(instance):
        kind = f.type.removesuffix(" | None")
        value = getattr(instance, f.name)
        if kind not in _TYPE_RULES or (value is None and kind != f.type):
            continue
        accepts, expected = _TYPE_RULES[kind]
        if not accepts(value):
            raise InputError(f"{f.name} must be {expected}")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, in config.json's key order."""

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
    batch_size: int = 8
    epochs: int = 4
    learning_rate: float = 2e-5
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 42
    selection_metric: str = "macro_f1"

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")
        if self.epochs < 1:
            raise InputError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise InputError("weight_decay must be >= 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InputError("beta1 and beta2 must lie in (0, 1)")
        if self.epsilon <= 0:
            raise InputError("epsilon must be > 0")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.selection_metric not in SELECTION_METRICS:
            raise InputError(f"selection_metric must be one of {SELECTION_METRICS}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InputError("train_fraction must lie strictly between 0 and 1")
        if self.split_mode not in SPLIT_MODES:
            raise InputError(f"split mode must be one of {SPLIT_MODES}, got {self.split_mode!r}")
        if self.casing not in CASINGS:
            raise InputError(f"casing must be one of {CASINGS}, got {self.casing!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise InputError(
                f"weight_scheme must be one of {WEIGHT_SCHEMES}, got {self.weight_scheme!r}"
            )
        if self.balance not in BALANCE_METHODS:
            raise InputError(f"balance must be one of {BALANCE_METHODS}, got {self.balance!r}")
        if not 0.0 < self.length_percentile_q <= 1.0:
            raise InputError("length_percentile_q must lie in (0, 1]")
        if self.max_len is not None and self.max_len < 1:
            raise InputError("max_len must be >= 1 when given")
        if self.weight_overrides is not None:
            if not isinstance(self.weight_overrides, dict):
                raise InputError("weight_overrides must map label names to weights")
            for label, value in self.weight_overrides.items():
                if label not in LABELS:
                    raise InputError(f"weight override for unknown label {label!r}")
                if not _is_real(value) or value < 0:
                    raise InputError(
                        f"weight override for {label!r} must be a finite number >= 0"
                    )
        kind, _, id_casing, _ = parse_provider_spec(self.provider)
        if id_casing is not None:
            raise InputError(
                f"provider must be 'hashed:<dim>' or 'precomputed:<path>', got "
                f"{self.provider!r}; casing and max_len are fields of their own"
            )
        if kind == "precomputed":
            # Precomputed vectors are looked up as they are, never tokenised.
            ignored = [f"casing {self.casing!r}"] if self.casing != "cased" else []
            if self.max_len is not None:
                ignored.append(f"max_len {self.max_len}")
            if ignored:
                raise InputError(
                    f"{' and '.join(ignored)} given with provider {self.provider!r}: "
                    "casing and max_len apply only to hashed:<dim> providers"
                )
        # Exactly one balancing method may be active. Loss weighting needs a
        # non-uniform scheme or explicit weights; the other methods must not
        # smuggle in a weighting scheme on the side.
        if self.balance == "loss_weighting":
            if self.weight_scheme == "uniform" and not self.weight_overrides:
                raise InputError(
                    "balance=loss_weighting needs a non-uniform weight_scheme "
                    "or explicit weight_overrides"
                )
        else:
            if self.weight_scheme != "uniform" or self.weight_overrides:
                raise InputError(
                    f"balance={self.balance} must keep weight_scheme=uniform "
                    "and no weight_overrides (exactly one balancing method)"
                )


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
            raise InputError(f"unknown preset {preset_name!r}; expected one of {sorted(PRESETS)}")
        merged.update(PRESETS[preset_name], run_id=preset_name)
    merged.update(file_config)
    if preset_name is not None:
        merged["preset"] = preset_name
    merged.update(overrides)

    # Anything else unknown is a typo and must not be dropped silently.
    unknown = set(merged) - FIELD_NAMES
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**merged)


def config_to_json(
    cfg: RunConfig, resolved_weights: Mapping[str, float], resolved_provider_id: str
) -> str:
    """Resolved-config JSON: ``cfg`` as it is, then the resolved_* entries,
    informational outputs of the run that re-running re-derives."""
    doc = asdict(cfg)
    doc["resolved_class_weights"] = dict(resolved_weights)
    doc["resolved_provider_id"] = resolved_provider_id
    return json.dumps(doc, indent=2) + "\n"


def load_config_file(path: str | Path) -> dict[str, Any]:
    with naming(path):
        try:
            doc = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputError("must hold a JSON object")
    return doc

"""Flat key = value run configuration with documented defaults.

Unknown keys are rejected.  Every run writes a resolved snapshot of the
full configuration next to its outputs so (snapshot, seed) reproduces all
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .cropgrid import GridSpec
from .errors import ConfigError, ParameterError
from .model import EncoderConfig
from .synthgen import PhantomSpec


@dataclass
class RunConfig:
    # data generation
    phantom_count: int = 512

    # crop geometry (desk defaults; paper scale is G=32, m=32, c1=14, H0=448); C2 spans
    # 2 * crop1_patches patches, and a phantom grid_patches * patch_pixels pixels
    grid_patches: int = 16
    patch_pixels: int = 16
    crop1_patches: int = 8
    resize_side: int = 64

    # encoder
    embed_dim: int = 32
    encoder_depth: int = 2
    encoder_hidden: int = 64

    # optimization
    epochs: int = 30
    warmup_epochs: int = 3
    batch_size: int = 8
    base_lr: float = 5e-4
    weight_decay_start: float = 0.04
    weight_decay_end: float = 0.4
    grad_clip_norm: float = 0.8
    lambda_global: float = 0.1
    lambda_comp: float = 1.0
    lambda_decomp: float = 1.0
    alpha_comp: float = 0.9
    alpha_decomp: float = 0.99
    tau_student: float = 0.1
    tau_teacher: float = 0.04
    checkpoint_every: int = 10
    seed: int = 0

    # photometric augmentation amplitudes
    aug_brightness: float = 0.1
    aug_contrast: float = 0.1
    aug_noise: float = 0.02
    aug_blur: float = 0.0

    # matching target kernel
    kernel_size: int = 3
    kernel_sigma: float = 1.0

    def check(self) -> None:
        """Refuse, by key and value, a loop shape that would crash the training
        loop or misdirect it, a dataset of no phantoms, a loss or target value
        the first step would fail on or silently misuse, and values a component
        cannot be built from."""
        for key in (k for k, ftype in _FIELD_TYPES.items() if ftype == "float"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for key, least in (("batch_size", 1), ("epochs", 1), ("checkpoint_every", 1),
                           ("warmup_epochs", 0), ("kernel_size", 1), ("seed", 0),
                           ("phantom_count", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if self.warmup_epochs >= self.epochs:
            # the learning rate would end the run at its peak, with no decay
            raise ConfigError(f"warmup_epochs must be below epochs ({self.epochs}), "
                              f"got {self.warmup_epochs}")
        if self.kernel_size % 2 == 0:  # no centre cell to put on the matched token
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        for key in ("grad_clip_norm", "tau_student", "tau_teacher", "kernel_sigma"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("alpha_comp", "alpha_decomp"):  # 1 - alpha weighs the negatives
            alpha = getattr(self, key)
            if not 0 <= alpha <= 1:
                raise ConfigError(f"{key} must be at {'least 0' if alpha < 0 else 'most 1'}, "
                                  f"got {alpha}")
        for build, keys in _COMPONENT_KEYS:
            try:
                getattr(self, build)()
            except ParameterError as exc:
                # the defaults build, so a key the user set is at fault
                named = [k for k in keys if getattr(self, k) != getattr(_DEFAULTS, k)]
                raise ConfigError(", ".join(f"{k} = {getattr(self, k)}" for k in named)
                                  + f": {exc}") from None

    def grid_spec(self) -> GridSpec:
        return GridSpec(G=self.grid_patches, m=self.patch_pixels,
                        c1=self.crop1_patches, c2=2 * self.crop1_patches,
                        H0=self.resize_side)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(K=self.embed_dim, T=self.crop1_patches,
                             H0=self.resize_side, depth=self.encoder_depth,
                             hidden=self.encoder_hidden)

    def phantom_spec(self) -> PhantomSpec:
        return PhantomSpec(side=self.grid_patches * self.patch_pixels)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_DEFAULTS = RunConfig()
# the keys each component is built from
_COMPONENT_KEYS = (
    ("grid_spec", ("grid_patches", "patch_pixels", "crop1_patches", "resize_side")),
    ("encoder_config", ("embed_dim", "crop1_patches", "resize_side", "encoder_depth",
                        "encoder_hidden")),
)


def _parse_value(key: str, raw: str):
    parse = int if _FIELD_TYPES[key] == "int" else float
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key = value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                apply_overrides(cfg, [stripped])
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if overrides:
        apply_overrides(cfg, overrides)
    cfg.check()
    return cfg


def write_snapshot(cfg: RunConfig, path) -> None:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

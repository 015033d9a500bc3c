"""Dataclass configs for the model and the training/evaluation protocol."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Defaults follow the experimental settings: 64-dim embeddings, a single
    self-attention layer per branch, 7 asymmetric conv layers with kernel
    extent 3, a 4-layer temporal conv head, and sparsity threshold 0.5.
    """

    t_obs: int = 8
    t_pred: int = 12
    embed_dim: int = 64
    conv_layers: int = 7
    conv_kernel: int = 3
    tcn_layers: int = 4
    xi: float = 0.5

    def __post_init__(self):
        for name in ("t_obs", "t_pred", "embed_dim", "conv_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ConfigError(f"conv_kernel must be odd and >= 1, got {self.conv_kernel}")
        if self.tcn_layers < 2:
            raise ConfigError(f"tcn_layers must be >= 2 (head needs an entry layer), got {self.tcn_layers}")
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigError(f"xi must lie in [0, 1], got {self.xi}")
        if self.embed_dim % 2 != 0:
            raise ConfigError(f"embed_dim must be even for the sin/cos position table, got {self.embed_dim}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol: Adam, stepped lr decay, accumulation batching."""

    epochs: int = 150
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay_factor: float = 0.1
    lr_decay_interval: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr_decay_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < float("inf"):  # also False for nan
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")

    def lr_at(self, epoch: int) -> float:
        """Stepped decay: lr * factor^(epoch // interval)."""
        return self.lr * self.lr_decay_factor ** (epoch // self.lr_decay_interval)


def read_config_file(path) -> dict:
    """Parse a flat key=value utf-8 config file into a string->string dict.

    Blank lines and #-comments are ignored.  A line splits at its first
    '=', so a value may itself contain '='.  A key given twice or a byte
    that is not utf-8 text raises a ``ConfigError`` naming the line.
    """
    result, first_line = {}, {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")  # a bad byte reads as a lone surrogate
    for lineno, line in enumerate(text.split("\n"), start=1):  # file lines: a form feed splits none
        stripped = line.strip()
        where = f"{path}:{lineno}"
        bad = [ord(c) - 0xDC00 for c in stripped if "\udc80" <= c <= "\udcff"]
        if bad:
            raise ConfigError(f"{where}: byte {bad[0]:#04x} is not utf-8 text")
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key=value, got {stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in first_line:
            raise ConfigError(f"{where}: key {key} given twice (first on line {first_line[key]})")
        first_line[key] = lineno
        result[key] = value
    return result


def write_config_file(path, values: dict) -> None:
    """Echo a resolved configuration as sorted key=value lines."""
    lines = [f"{k}={values[k]}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RunConfig:
    """Resolved CLI run, echoed next to outputs; ``xi=None`` is unset: train's default, else the checkpoint's."""

    command: str = ""
    data_root: str = ""
    holdout: str = "ZARA2"
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    xi: float | None = None
    seed: int = TrainConfig.seed
    num_samples: int = 20
    out: str = "runs/default"
    checkpoint: str = ""
    scene_file: str = ""

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take only non-negative seeds
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.xi is not None:  # ModelConfig states xi's range; check it before any command reads a file
            ModelConfig(xi=self.xi)
        for key, value in self.as_dict().items():  # refuse what resolved.cfg could not carry back unchanged
            if not isinstance(value, str):
                continue
            if value != value.strip() or "\n" in value or "\r" in value:  # the reader strips, splits lines
                raise ConfigError(f"{key} {value!r} has surrounding whitespace or a line break")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # an undecodable argv byte arrives as a lone surrogate
                raise ConfigError(f"{key} {value!r} holds a character utf-8 cannot encode") from None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

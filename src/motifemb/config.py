"""Hyperparameter container shared by all embedding back-ends."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Literal, get_args, get_origin, get_type_hints

__all__ = ["TrainConfig", "check_choice", "field_types"]

LineOrder = Literal["first", "second", "concat"]
# the values an ``int`` or ``float`` field takes (never a bool), and their name
_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def field_types(cls) -> dict[str, object]:
    """Resolved annotation per dataclass field (``Literal[...]`` for choices)."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_choice(name: str, value, allowed) -> None:
    """Raise ValueError unless ``value`` is one of ``allowed``, the choices
    of the setting ``name``."""
    if value not in allowed:
        raise ValueError(f"unknown {name}: {value!r} "
                         f"(expected one of {', '.join(map(repr, allowed))})")


@dataclass(frozen=True)
class TrainConfig:
    """Embedding hyperparameters with conventional skip-gram defaults.

    Every trainer is deterministic given (graph, config) and reads its seed
    from ``seed`` alone; spectral reads no seed. Defaults are recorded into
    each embedding's provenance so results stay reproducible.
    A field annotated with a ``Literal`` only accepts the listed values, one
    annotated ``int`` only integers and one annotated ``float`` only real
    numbers (numpy's too, but never a bool), in this class and in every
    subclass; these types are checked before any bound.
    """

    dim: int = 64
    walks_per_node: int = 10
    walk_length: int = 40
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    p: float = 1.0
    q: float = 1.0
    line_order: LineOrder = "concat"
    line_samples_factor: int = 100  # edge samples per edge per epoch
    batch_size: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        for name, typ in field_types(type(self)).items():
            value = getattr(self, name)
            if get_origin(typ) is Literal:
                check_choice(name, value, get_args(typ))
            elif typ in _NUMBERS:
                kind, what = _NUMBERS[typ]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        for name in ("dim", "walks_per_node", "walk_length", "window",
                     "negatives", "epochs", "batch_size", "line_samples_factor"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        # node2vec weighs steps by 1/p and 1/q, so those must be finite too
        if not all(0 < v < math.inf and 1 / v < math.inf for v in (self.p, self.q)):
            raise ValueError("p and q and their reciprocals must be finite and > 0")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)

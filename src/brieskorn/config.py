"""Run configuration: caps for the bounded computations.

Flags win over environment variables, which win over the defaults.
Environment overrides: BRIESKORN_JET_CAP, BRIESKORN_TRUNC_ORDER.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .errors import InputError

_ENV_PREFIX = "BRIESKORN_"


@dataclass(frozen=True)
class RunConfig:
    jet_cap: int = 24
    trunc_order: int = 16
    output_format: str = "text"
    seed: int = 0

    def __post_init__(self):
        if self.jet_cap < 4:
            raise InputError("jet cap must be at least 4")
        if self.trunc_order < 2:
            raise InputError("truncation order must be at least 2")
        if self.output_format not in ("text", "json"):
            raise InputError("output format must be 'text' or 'json'")


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"environment variable {_ENV_PREFIX + name} must be an integer") from exc


def _setting(flag: Optional[int], name: str, default: int) -> int:
    """The flag if given, else the environment override, else the default.
    A set override, 0 included, is kept, so RunConfig validates it."""
    if flag is not None:
        return flag
    env = _env_int(name)
    return default if env is None else env


def config_from_env_and_args(
    jet_cap: Optional[int] = None,
    trunc_order: Optional[int] = None,
    output_format: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunConfig:
    defaults = RunConfig()
    return RunConfig(
        jet_cap=_setting(jet_cap, "JET_CAP", defaults.jet_cap),
        trunc_order=_setting(trunc_order, "TRUNC_ORDER", defaults.trunc_order),
        output_format=output_format or defaults.output_format,
        seed=seed if seed is not None else defaults.seed,
    )

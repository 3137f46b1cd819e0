"""Flat key/value configuration files and the embedded base parameter set."""
from __future__ import annotations

import ast
from pathlib import Path

from .errors import ConfigError
from .market import Exponential, MarketParams, RateCurve

# Embedded defaults: the reference parameter set used throughout the
# numerical study (t=0, T=8, theta=0.1, eta=0.9, lambda=1, beta=1,
# all rates 0.1, all risk aversions 0.1, x0 = (1, 10, 10)).
DEFAULTS: dict = {
    "t": 0.0,
    "T": 8.0,
    "lambda": 1.0,
    "theta": 0.1,
    "eta": 0.9,
    "beta": 1.0,
    "gamma_I": 0.1,
    "gamma_R1": 0.1,
    "gamma_R2": 0.1,
    "rho_I": [(0.0, 0.1)],
    "rho_R1": [(0.0, 0.1)],
    "rho_R2": [(0.0, 0.1)],
    "x0_I": 1.0,
    "x0_R1": 10.0,
    "x0_R2": 10.0,
}

_SCALAR_KEYS = {"t", "T", "lambda", "theta", "eta", "beta", "gamma_I", "gamma_R1",
                "gamma_R2", "x0_I", "x0_R1", "x0_R2"}


def parse_config_file(path: str | Path) -> dict:
    """Parse `name = value` lines; unknown keys or bad values name the line."""
    cfg = dict(DEFAULTS)
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if name not in cfg:
            raise ConfigError(f"{path}:{lineno}: unknown parameter {name!r}")
        try:
            cfg[name] = ast.literal_eval(value)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"{path}:{lineno}: cannot parse value {value!r}") from exc
    return cfg


def _curve(value, horizon: float, key: str) -> RateCurve:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return RateCurve.flat(float(value), horizon)
    try:
        return RateCurve(tuple((float(t), float(r)) for t, r in value), horizon)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a rate or [(t, rate), ...], got {value!r}") from exc


def build_market_params(cfg: dict) -> MarketParams:
    """MarketParams from a parsed config dict (exponential claims only)."""
    for key in _SCALAR_KEYS:
        if not isinstance(cfg[key], (int, float)) or isinstance(cfg[key], bool):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    horizon = float(cfg["T"])
    return MarketParams(
        T=horizon,
        lam=float(cfg["lambda"]),
        theta=float(cfg["theta"]),
        eta=float(cfg["eta"]),
        gamma_I=float(cfg["gamma_I"]),
        gamma_R1=float(cfg["gamma_R1"]),
        gamma_R2=float(cfg["gamma_R2"]),
        rho_I=_curve(cfg["rho_I"], horizon, "rho_I"),
        rho_R1=_curve(cfg["rho_R1"], horizon, "rho_R1"),
        rho_R2=_curve(cfg["rho_R2"], horizon, "rho_R2"),
        claims=Exponential(float(cfg["beta"])),
        x0_I=float(cfg["x0_I"]),
        x0_R1=float(cfg["x0_R1"]),
        x0_R2=float(cfg["x0_R2"]),
    )


def default_market_params(**overrides) -> MarketParams:
    """The embedded base parameter set, with optional config-key overrides."""
    cfg = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in cfg:
            raise ConfigError(f"unknown parameter {key!r}")
        cfg[key] = value
    return build_market_params(cfg)

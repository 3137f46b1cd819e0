"""Command-line entry point.

Commands: equilibrium | trajectory | sweep | simulate | validate.
Output is CSV (9 significant digits, '.' decimal separator, header always
present) or JSON mirroring the same columns one object per row.  Exit codes:
0 success, 1 validation failures, 2 configuration errors, 3 solver errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULTS, build_market_params, parse_config_file
from .errors import ConfigError, DomainError, ReinsGameError
from .expo import constrained_equilibrium
from .market import Exponential, MarketParams, RateCurve, premium_rates
from .reaction import foc_residual_r1, foc_residual_r2
from .simulate import SimConfig, estimate_objectives, simulate
from .validate import run_checks
from .valuation import _DEFAULT_PATH_GRID, StrategyPath, equilibrium_path, value_intercepts

SWEEP_PARAMS = ("beta", "mu", "gamma_I", "gamma_R1", "gamma_R2",
                "rho_I", "rho_R1", "rho_R2")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _emit(columns: list[str], rows: list[list], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    sys.stdout.write(payload)
    if out:
        Path(out).write_text(payload)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, n = spec.split(":")
        start, stop, n = float(start), float(stop), int(n)
    except ValueError as exc:
        raise ConfigError(f"--grid expects start:stop:n, got {spec!r}") from exc
    if not (np.isfinite([start, stop]).all() and n >= 1):
        raise ConfigError(f"--grid needs finite ends and at least one point, got {spec!r}")
    return np.linspace(start, stop, n)


def _equilibrium_row(params: MarketParams, t: float) -> list:
    eq = constrained_equilibrium(params, t)
    resp = eq.response
    return [t, eq.xi1_star, eq.xi2_star, resp.q, resp.d, resp.cap,
            resp.retention_limit, eq.regime.value,
            foc_residual_r1(eq.point(), params), foc_residual_r2(eq.point(), params)]


def cmd_equilibrium(params: MarketParams, t: float, args) -> int:
    columns = ["t", "xi1", "xi2", "q", "d", "cap", "retention_limit",
               "regime", "foc_r1", "foc_r2"]
    _emit(columns, [_equilibrium_row(params, t)], args.format, args.out)
    return 0


def cmd_trajectory(params: MarketParams, t: float, args) -> int:
    grid = _parse_grid(args.grid) if args.grid else np.linspace(0.0, params.T, 81)
    if np.any((grid < 0.0) | (grid > params.T)):
        raise ConfigError(f"--grid {args.grid} leaves [0, T = {params.T:g}]")
    # one array solve of equilibrium_path's times followed by the rows' times
    n = _DEFAULT_PATH_GRID
    times = np.concatenate([np.linspace(0.0, params.T, n), grid])
    eq = constrained_equilibrium(params, times)
    path = StrategyPath(params, times[:n], eq.xi1_star[:n], eq.xi2_star[:n])
    intercepts = value_intercepts(path, params, grid)
    solved = [eq.xi1_star, eq.xi2_star, eq.response.q, eq.response.d, eq.response.cap,
              *premium_rates(eq.point(), eq.response, params)]
    solved = np.column_stack([grid, *(v[n:] for v in solved), *intercepts])
    rows = [[float(v) for v in row] for row in solved]
    columns = ["t", "xi1", "xi2", "q", "d", "cap", "p1", "p2", "B_I", "B_R1", "B_R2"]
    _emit(columns, rows, args.format, args.out)
    return 0


def _apply_sweep_value(params: MarketParams, name: str, value: float) -> MarketParams:
    sign = "non-negative" if name.startswith("rho") else "positive"
    if not (value >= 0.0 if name.startswith("rho") else value > 0.0):
        raise ConfigError(f"--param {name} must be {sign}, got {value:g}")
    if name == "beta":
        return dataclasses.replace(params, claims=Exponential(value))
    if name == "mu":
        return dataclasses.replace(params, claims=Exponential(1.0 / value))
    if name.startswith("gamma"):
        return dataclasses.replace(params, **{name: value})
    if name.startswith("rho"):
        return dataclasses.replace(params, **{name: RateCurve.flat(value, params.T)})
    raise ConfigError(f"--param must be one of {SWEEP_PARAMS}, got {name!r}")


def cmd_sweep(params: MarketParams, t: float, args) -> int:
    if not args.param:
        raise ConfigError("sweep requires --param")
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {SWEEP_PARAMS}, got {args.param!r}")
    if not args.grid:
        raise ConfigError("sweep requires --grid start:stop:n")
    grid = _parse_grid(args.grid)
    rows = []
    for value in grid:
        swept = _apply_sweep_value(params, args.param, float(value))
        rows.append([float(value)] + _equilibrium_row(swept, t)[1:])
    columns = [args.param, "xi1", "xi2", "q", "d", "cap", "retention_limit",
               "regime", "foc_r1", "foc_r2"]
    _emit(columns, rows, args.format, args.out)
    return 0


def cmd_simulate(params: MarketParams, t: float, args) -> int:
    try:
        config = SimConfig(paths=args.paths, seed=args.seed)
    except DomainError as exc:
        raise ConfigError(f"--paths {args.paths} --seed {args.seed}: {exc}") from exc
    path = equilibrium_path(params)
    samples = simulate(path, params, config)
    estimates = estimate_objectives(samples, params)
    columns = ["party", "mean", "variance", "j", "se_mean", "se_variance", "se_j"]
    rows = [[e.party, e.mean, e.variance, e.j, e.se_mean, e.se_variance, e.se_j]
            for e in estimates.values()]
    _emit(columns, rows, args.format, args.out)
    if args.samples_out:
        lines = ["path,x_I,x_R1,x_R2"]
        lines += [f"{i},{_fmt(a)},{_fmt(b)},{_fmt(c)}"
                  for i, (a, b, c) in enumerate(zip(samples.x_i, samples.x_r1,
                                                    samples.x_r2))]
        Path(args.samples_out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_validate(params: MarketParams, t: float, args) -> int:
    results = run_checks(params, t)
    summary = {
        "passed": bool(all(r.passed for r in results)),
        "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail,
                    "seconds": r.seconds} for r in results],
    }
    payload = json.dumps(summary, indent=2) + "\n"
    sys.stdout.write(payload)
    if args.out:
        Path(args.out).write_text(payload)
    return 0 if summary["passed"] else 1


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "trajectory": cmd_trajectory,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


@functools.cache  # one parser per process, which main reads on every call and nothing changes
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinsgame",
        description="Equilibrium solver for a two-reinsurer price-competition game.")
    parser.add_argument("--config", help="key = value parameter file")
    parser.add_argument("--command", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--out", help="also write the output to this file")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--grid", help="grid spec start:stop:n")
    parser.add_argument("--param", help="sweep parameter name")
    parser.add_argument("--paths", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--samples-out", dest="samples_out",
                        help="raw per-path sample dump (simulate only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if args.config else dict(DEFAULTS)
        params = build_market_params(cfg)
        t = float(cfg["t"])
        if not 0.0 <= t <= params.T:
            raise ConfigError(f"t = {t:g} outside [0, T = {params.T:g}]")
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](params, t, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ReinsGameError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: what each runs, why it was chosen, how its output is checked.

A workload imports the library only in ``setup``, so that set-up time covers
the import.  ``prepare`` builds run-wide reference data outside any timing.
``queries(index)`` builds the inputs of operation ``index`` (untimed) and
returns zero-argument callables; the runner times each call, then passes each
output to ``check``, which returns the list of problems found (empty when the
output is correct).

Every workload runs in one process on one thread; the runner pins the BLAS
and OpenMP thread counts before numpy is imported.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math

PARTIES = ("I", "R1", "R2")


class CommandFailed(Exception):
    """The CLI returned a non-zero exit code."""


def run_cli(cli, argv: list[str]) -> str:
    """Run ``reinsgame.cli.main`` in-process and return what it printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"reinsgame {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _seed_rng(seed: int, index: int):
    import numpy as np
    return np.random.default_rng([seed, index])


class Workload:
    name = ""
    why = ""
    # Latency samples behind point_ms: each query (True) or each operation.
    point_queries = False
    # Keep measuring past --seconds until this many queries have run, so the
    # latency tail is always taken at the same percentile.
    min_queries = 1
    # Simulated Monte Carlo paths per operation (for paths_per_s).
    paths_per_op = 0
    # A failed check is a failed operation; a statistical check that fails
    # does not make the run incorrect (see stats.Tally).
    statistical_check = False
    # Typed library errors are an outcome this workload measures (they count
    # in fail_share) rather than a failed operation.
    typed_errors_expected = False

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Run-wide reference data, built once outside every timing."""

    def queries(self, index: int) -> list:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def output_bytes(self, output) -> int:
        """Bytes the CLI printed for one query's output (0 if no CLI call)."""
        return 0


class Trajectory(Workload):
    name = "trajectory"
    why = ("CLI trajectory on the reference config: 801-point path, 81 re-solved "
           "rows, B_k intercepts; ~99% of it is nested bisection in the boxed "
           "equilibrium, where a vectorized solver shows")

    # Reproduction targets pinned by the acceptance suite (value, tolerance).
    PINS = {"xi1": (0.28269, 5e-5), "xi2": (0.38225, 5e-5),
            "q": (0.2825, 5e-4), "d": (2.3936, 5e-4)}
    P2_PATH = ((0.1262, 1.5e-3), (0.1070, 1.5e-3))
    ROWS = 81

    def setup(self, seed: int) -> None:
        # The reference config is the workload's input, whatever the seed.
        from reinsgame import cli, default_market_params
        self.cli = cli
        self.params = default_market_params()

    def queries(self, index: int) -> list:
        return [lambda: run_cli(self.cli, ["--command", "trajectory"])]

    def output_bytes(self, output) -> int:
        return len(output.encode())

    def check(self, output) -> list[str]:
        rows = _rows(output)
        if len(rows) != self.ROWS:
            return [f"expected {self.ROWS} rows, got {len(rows)}"]
        problems = []
        col = {key: [float(r[key]) for r in rows] for key in rows[0]}
        for key, (want, tol) in self.PINS.items():
            if not abs(col[key][0] - want) <= tol:
                problems.append(f"{key}(0) = {col[key][0]}, want {want} +- {tol}")
        for got, (want, tol) in zip((col["p2"][0], col["p2"][-1]), self.P2_PATH):
            if not abs(got - want) <= tol:
                problems.append(f"p2 endpoint {got}, want {want} +- {tol}")
        for key in ("xi1", "xi2"):
            if any(b > a for a, b in zip(col[key], col[key][1:])):
                problems.append(f"{key} increases somewhere in t")
        if col["t"][-1] != self.params.T:
            problems.append(f"last row at t = {col['t'][-1]}, not T")
        if any(col[key][-1] != 0.0 for key in ("B_I", "B_R1", "B_R2")):
            problems.append("B_k(T) is not 0")
        return problems


class SweepBox(Workload):
    name = "sweep_box"
    why = ("cold boxed-equilibrium queries at seeded points across the admissible "
           "box, so no time-grid reuse helps; includes the C_R2 > 10 region where "
           "NoRootError fires today")
    point_queries = True
    # A point where the solver signals no root with a typed error is a
    # measured outcome (it lowers ok_share), not a wrong answer: the library's
    # contract is an in-box equilibrium or a typed error at every box point.
    typed_errors_expected = True
    min_queries = 1000  # p99 needs 1000 samples to leave 10 beyond it
    BATCH = 250

    # Sampling box.  Risk aversions span a 50x ratio, so C_R2 =
    # gamma_R2 A_R2 / (gamma_I A_I) reaches the region above 10 where the
    # reaction-curve bracket fails today; those points must stay in.
    GAMMA = (0.02, 1.0)   # log-uniform, each party
    BETA = (0.25, 4.0)    # log-uniform
    RHO = (0.0, 0.2)      # uniform flat rate, each party
    HORIZON = (1.0, 10.0)  # uniform T; t uniform on [0, T)
    # Interior FOC residual bound, relative to the claim moment it carries.
    FOC_TOL = 1e-8

    def setup(self, seed: int) -> None:
        import reinsgame as rg
        self.seed = seed
        self.rg = rg

    def _draw(self, rng):
        rate_curve = self.rg.RateCurve
        lg = [math.log(v) for v in self.GAMMA]
        lb = [math.log(v) for v in self.BETA]
        g_i, g_r1, g_r2 = (math.exp(v) for v in rng.uniform(lg[0], lg[1], 3))
        beta = math.exp(rng.uniform(lb[0], lb[1]))
        rho_i, rho_r1, rho_r2 = rng.uniform(*self.RHO, 3)
        horizon = float(rng.uniform(*self.HORIZON))
        t = float(rng.uniform(0.0, horizon))
        params = self.rg.MarketParams(
            T=horizon, lam=1.0, theta=0.1, eta=0.9,
            gamma_I=g_i, gamma_R1=g_r1, gamma_R2=g_r2,
            rho_I=rate_curve.flat(float(rho_i), horizon),
            rho_R1=rate_curve.flat(float(rho_r1), horizon),
            rho_R2=rate_curve.flat(float(rho_r2), horizon),
            claims=self.rg.Exponential(beta))
        return params, t

    def queries(self, index: int) -> list:
        rng = _seed_rng(self.seed, index)
        points = [self._draw(rng) for _ in range(self.BATCH)]
        # Library calls go through the module, so an installed tracer sees them.
        return [lambda p=p, t=t: (p, self.rg.constrained_equilibrium(p, t))
                for p, t in points]

    def check(self, output) -> list[str]:
        params, eq = output
        (lo1, hi1), (lo2, hi2) = self.rg.admissible_box(params)
        if not (math.isfinite(eq.xi1_star) and math.isfinite(eq.xi2_star)):
            return [f"non-finite equilibrium {eq.xi1_star}, {eq.xi2_star}"]
        if not (lo1 <= eq.xi1_star <= hi1 and lo2 <= eq.xi2_star <= hi2):
            return [f"equilibrium ({eq.xi1_star}, {eq.xi2_star}) outside the box"]
        if eq.regime is not self.rg.Regime.INTERIOR:
            return []
        r1 = self.rg.foc_residual_r1(eq.point(), params)
        r2 = self.rg.foc_residual_r2(eq.point(), params)
        claims = params.claims
        if not (abs(r1) <= self.FOC_TOL * claims.second_moment
                and abs(r2) <= self.FOC_TOL * claims.mean):
            return [f"interior FOC residuals ({r1:g}, {r2:g})"]
        return []


class MonteCarlo(Workload):
    name = "mc_crosscheck"
    why = ("CLI simulate then the closed-form objectives: the only workload that "
           "runs the per-event Monte Carlo loop, sized so that loop does most of "
           "the work")
    paths_per_op = 16000
    # The simulation seed is the CLI's default, whatever the run seed: every
    # operation is the same deterministic command, so the z-test below gives
    # the same verdict in every run.  Seeds drawn per run would each miss it
    # with probability about 0.8%, and failed counts would differ by chance.
    SIM_SEED = 12345
    # |z| <= 3 per party.  A correct simulation exceeds it with probability
    # about 0.3% per party, so a miss counts as a failed operation only.
    Z_MAX = 3.0
    statistical_check = True

    def setup(self, seed: int) -> None:
        import reinsgame as rg
        from reinsgame import cli
        self.rg = rg
        self.cli = cli
        self.params = rg.default_market_params()

    def prepare(self) -> None:
        # The path the CLI solves internally, for the closed-form side.
        self.path = self.rg.equilibrium_path(self.params)

    def queries(self, index: int) -> list:
        argv = ["--command", "simulate", "--paths", str(self.paths_per_op),
                "--seed", str(self.SIM_SEED)]

        def operation():
            text = run_cli(self.cli, argv)
            closed = {party: self.rg.closed_form_objective(party, self.path, self.params,
                                                           0.0, self.params.x0(party))
                      for party in PARTIES}
            return text, closed

        return [operation]

    def output_bytes(self, output) -> int:
        return len(output[0].encode())

    def check(self, output) -> list[str]:
        text, closed = output
        rows = {row["party"]: row for row in _rows(text)}
        problems = []
        for party, cf in closed.items():
            z = abs(float(rows[party]["j"]) - cf.j) / float(rows[party]["se_j"])
            if not z <= self.Z_MAX:
                problems.append(f"{party}: Monte Carlo J is {z:.2f} standard errors "
                                "from the closed form")
        return problems


def _uniform_cdf(y: float) -> float:
    return min(max(y / 2.0, 0.0), 1.0)


def _erlang2_cdf(y: float) -> float:
    # Erlang(2, rate 2): mean 1, like the reference exponential law.
    if y <= 0.0:
        return 0.0
    return -math.expm1(-2.0 * y) - 2.0 * y * math.exp(-2.0 * y)


class GeneralLaw(Workload):
    name = "general_law"
    why = ("general-law solve, strategy path and objectives for uniform[0,2] "
           "(bounded support) and Erlang-2 (unbounded): the only workload that "
           "runs the reaction maps and GenericClaims quadrature")
    # One solve per law, at t = 0, held over [0, T]: an Erlang-2 solve alone
    # takes about 5 s, and a run needs several operations to give a steady median.
    FOC_TOL = 1e-8
    PANELS = 200

    def setup(self, seed: int) -> None:
        # The two laws on the reference market are the input, whatever the seed.
        import reinsgame as rg
        self.rg = rg
        base = rg.default_market_params()
        self.laws = {
            "uniform": dataclasses.replace(base, claims=rg.GenericClaims(_uniform_cdf)),
            "erlang2": dataclasses.replace(base, claims=rg.GenericClaims(_erlang2_cdf)),
        }

    def _solve(self, params):
        rg = self.rg
        point = rg.general_equilibrium(params, 0.0)
        path = rg.StrategyPath(params, [0.0, params.T], [point.xi1] * 2, [point.xi2] * 2)
        objectives = [rg.closed_form_objective(party, path, params, 0.0,
                                               params.x0(party), panels=self.PANELS)
                      for party in PARTIES]
        return point, objectives

    def queries(self, index: int) -> list:
        return [lambda: {law: self._solve(params) for law, params in self.laws.items()}]

    def check(self, output) -> list[str]:
        problems = []
        for law, (point, objectives) in output.items():
            params = self.laws[law]
            r1 = self.rg.foc_residual_r1(point, params)
            r2 = self.rg.foc_residual_r2(point, params)
            if not (abs(r1) <= self.FOC_TOL and abs(r2) <= self.FOC_TOL):
                problems.append(f"{law}: FOC residuals ({r1:g}, {r2:g})")
            if not all(math.isfinite(obj.j) for obj in objectives):
                problems.append(f"{law}: non-finite objective")
        return problems


WORKLOADS = {w.name: w for w in (Trajectory, SweepBox, MonteCarlo, GeneralLaw)}

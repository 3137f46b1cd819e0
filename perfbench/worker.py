"""One workload in one process: set up, measure, check, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this; it is not meant to be run by hand, but can be.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import Tally, median, percentile, tail  # noqa: E402
from tracing import Stat, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CommandFailed, Workload  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
clock = time.perf_counter

# Timings are scaled to a reference machine speed.  The CPU speed of a shared
# machine drifts by up to 2x within seconds (a fixed 20 ms loop was measured
# at 19 to 34 ms on 2 vCPUs), so raw seconds of two runs of the same code can
# differ by more than any useful regression bound.  While the worker runs, a
# SIGALRM handler times a short calibration pass every SAMPLE_INTERVAL_S;
# an operation's time is divided by the mean slowness of the samples taken
# during it.  The pass mixes scalar Python arithmetic and scalar numpy calls,
# like the library's inner loops: on those loops, operation time divided by
# this pass varied least.  Raw seconds and the factors are in the info line.
SAMPLE_INTERVAL_S = 0.05
SCALAR_PASS_S = 3.0e-4  # reference duration of one scalar pass
NUMPY_PASS_S = 1.75e-4  # reference duration of one numpy pass


def _scalar_pass() -> float:
    x = 0.0
    for i in range(1, 2000):
        x += math.exp(-i * 1e-6) * math.sqrt(i)
    return x


class SpeedProbe:
    """Samples the machine's speed in this process while in a ``with`` block.

    With ``numpy=False`` (set-up, while numpy may be half imported) only the
    scalar pass runs.
    """

    def __init__(self, numpy: bool = True):
        self.samples: list[tuple[float, float]] = []  # (start, slowness)
        self._np = None
        if numpy:
            import numpy as np
            self._np = np
            self._xs = np.linspace(0.0, 1.0, 64)
            self._ys = np.sqrt(self._xs)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _numpy_pass(self) -> float:
        np, x = self._np, 0.0
        for i in range(1, 40):
            y = i * 0.01
            x += float(np.clip(y, 0.0, 1.0)) + float(np.interp(y, self._xs, self._ys))
        return x

    def _sample(self, signum, frame) -> None:
        start = clock()
        _scalar_pass()
        reference = SCALAR_PASS_S
        if self._np is not None:
            self._numpy_pass()
            reference += NUMPY_PASS_S
        self.samples.append((start, (clock() - start) / reference))

    def slowness(self, t0: float, t1: float) -> float:
        """Mean slowness over [t0, t1] (1 = reference speed).

        Falls back to the last sample before t1 for intervals shorter than
        the sampling interval, and to 1 when there is no sample at all.
        """
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [k for t, k in self.samples if t <= t1][-1:]
        return statistics.mean(inside) if inside else 1.0


# (owner, attribute, metric prefix, kind).  Owner "module:Class" patches a
# method.  Spans sit at module boundaries; kernels are the hot functions.
INSTRUMENTS = [
    ("reinsgame.cli", "main", "cli.main", "span"),
    ("reinsgame.config", "build_market_params", "config.build_market_params", "span"),
    ("reinsgame.valuation", "equilibrium_path", "valuation.equilibrium_path", "span"),
    ("reinsgame.valuation", "path_profile", "valuation.path_profile", "span"),
    ("reinsgame.valuation", "closed_form_objective", "valuation.closed_form_objective", "span"),
    ("reinsgame.valuation:ValueIntercept", "__call__", "valuation.ValueIntercept", "span"),
    ("reinsgame.simulate", "simulate", "simulate.simulate", "span"),
    ("reinsgame.simulate", "estimate_objectives", "simulate.estimate_objectives", "span"),
    ("reinsgame.reaction", "general_equilibrium", "reaction.general_equilibrium", "span"),
    ("reinsgame.expo", "constrained_equilibrium", "expo.constrained_equilibrium", "span"),
    ("reinsgame.expo", "unconstrained_fixed_point", "expo.unconstrained_fixed_point", "span"),
    ("reinsgame.expo", "h1_inv", "expo.h1_inv", "span"),
    ("reinsgame.market:GenericClaims", "__init__", "market.GenericClaims.init", "span"),
    ("reinsgame.expo", "G_inv", "expo.G_inv", "kernel"),
    ("reinsgame.expo", "G_fun", "expo.G_fun", "kernel"),
    ("reinsgame.roots", "bisect", "roots.bisect", "root"),
    ("reinsgame.roots", "scan_bisect", "roots.scan_bisect", "root"),
    ("reinsgame.reaction", "reaction_xi1", "reaction.reaction_xi1", "kernel"),
    ("reinsgame.reaction", "foc_residual_r1", "reaction.foc_residual_r1", "kernel"),
    ("reinsgame.market:GenericClaims", "truncated", "market.GenericClaims.truncated", "kernel"),
    ("reinsgame.market:GenericClaims", "ppf", "market.GenericClaims.ppf", "kernel"),
    ("reinsgame.market:Exponential", "ppf", "market.Exponential.ppf", "kernel"),
    ("reinsgame.response", "response", "response.response", "kernel"),
    ("reinsgame.response", "indemnity", "response.indemnity", "kernel"),
]
LAYERS = ("cli", "config", "valuation", "simulate", "reaction", "expo", "roots",
          "market", "response")


def install(tracer: Tracer) -> None:
    """Install every instrument whose target exists in this library version."""
    for owner_path, attr, name, kind in INSTRUMENTS:
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        if class_name:
            owner = getattr(owner, class_name, None)
        if owner is not None:
            tracer.install(owner, attr, name, kind)


@dataclass
class Measurement:
    op_s: list[float] = field(default_factory=list)
    query_ms: list[list[float]] = field(default_factory=list)  # per operation
    slowness: list[float] = field(default_factory=list)  # per operation
    output_bytes: int = 0

    @property
    def queries(self) -> int:
        return sum(len(q) for q in self.query_ms)

    def scaled_op_s(self) -> list[float]:
        return [t / k for t, k in zip(self.op_s, self.slowness)]


def measure(workload: Workload, seconds: float, tally: Tally, min_queries: int = 1,
            tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Measurement:
    """Run operations until ``seconds`` would be exceeded by one more.

    Only the queries are timed; outputs are checked after the operation,
    with any tracer removed.
    """
    m = Measurement()
    start = clock()
    index = 0
    while True:
        queries = workload.queries(index)
        outputs, query_ms = [], []
        if tracer is not None:
            install(tracer)
        op_start = clock()
        for query in queries:
            q_start = clock()
            try:
                outputs.append((query(), None))
            except Exception as exc:  # the failure is counted, the run goes on
                outputs.append((None, exc))
            query_ms.append((clock() - q_start) * 1e3)
        op_end = clock()
        m.op_s.append(op_end - op_start)
        m.query_ms.append(query_ms)
        m.slowness.append(probe.slowness(op_start, op_end) if probe else 1.0)
        if tracer is not None:
            tracer.uninstall()
        for output, error in outputs:
            if error is not None:
                typed = isinstance(error, CommandFailed) or \
                    type(error).__module__.startswith("reinsgame")
                if not typed:
                    traceback.print_exception(error, file=sys.stderr)
                tally.record(error, typed)
                continue
            m.output_bytes += workload.output_bytes(output)
            statistical = workload.statistical_check
            try:
                problems = workload.check(output)
            except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                problems, statistical = [f"output could not be checked: {exc!r}"], False
            for problem in problems:
                print(f"{workload.name}: check failed: {problem}", file=sys.stderr)
            tally.record(problems=problems, statistical=statistical)
        index += 1
        elapsed = clock() - start
        if m.queries >= min_queries and elapsed + median(m.op_s) > seconds:
            return m


def end_to_end(workload: Workload, seconds: float,
               probe: SpeedProbe | None = None) -> tuple[Tally, dict, dict]:
    tally = Tally(workload.typed_errors_expected)
    m = measure(workload, seconds, tally, workload.min_queries, probe=probe)
    op_s = m.scaled_op_s()
    if workload.point_queries:
        latencies = [q / k for qs, k in zip(m.query_ms, m.slowness) for q in qs]
    else:
        latencies = [t * 1e3 for t in op_s]
    tail_p, tail_ms = tail(latencies)
    metrics = {
        "wall_s": (median(op_s), "s"),
        "point_ms.p50": (percentile(latencies, 50), "ms"),
        "point_ms.p99": (tail_ms, "ms"),
        "ok_share": (1.0 - tally.fail_share, "share"),
    }
    info = {"raw_operation_s": [round(v, 4) for v in m.op_s],
            "slowness": [round(v, 4) for v in m.slowness],
            "latency_samples": len(latencies),
            "p99_reported_at_percentile": tail_p, "errors": tally.errors,
            "fail_share": tally.fail_share}
    return tally, metrics, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: Workload, seed: int, seconds: float,
              probe: SpeedProbe | None = None) -> tuple[Tally, dict, dict]:
    """Untraced then traced halves of the run; counts and times per operation."""
    tally = Tally(workload.typed_errors_expected)
    plain = measure(workload, seconds / 2, tally, probe=probe)

    tracer = Tracer()
    install(tracer)
    type(workload)().setup(seed)  # a second set-up times GenericClaims construction
    tracer.uninstall()
    init_s = tracer.stat("market.GenericClaims.init").total_s
    tracer.reset()
    traced = measure(workload, seconds / 2, tally, tracer=tracer, probe=probe)

    report = summarize(tracer)
    n = len(traced.op_s)
    stats = report.stats

    def s(name: str) -> Stat:
        return stats.get(name, Stat())

    def evals(finder: str) -> int:
        return sum(st.calls for key, st in stats.items() if key.startswith(finder + ".eval@"))

    count, secs, per_call, per_s = "count", "s", "evals/call", "1/s"
    sim = s("simulate.simulate")
    metrics = {
        "expo.constrained_equilibrium.calls": (s("expo.constrained_equilibrium").calls / n, count),
        "expo.constrained_equilibrium.total_s": (s("expo.constrained_equilibrium").total_s / n, secs),
        "expo.unconstrained_fixed_point.total_s": (s("expo.unconstrained_fixed_point").total_s / n, secs),
        "expo.G_inv.calls": (s("expo.G_inv").calls / n, count),
        "expo.G_inv.self_s": (s("expo.G_inv").self_s / n, secs),
        "expo.h1_inv.calls": (s("expo.h1_inv").calls / n, count),
        "expo.h1_inv.total_s": (s("expo.h1_inv").total_s / n, secs),
        "expo.G_fun.calls": (s("expo.G_fun").calls / n, count),
        "expo.G_fun.total_s": (s("expo.G_fun").total_s / n, secs),
        "roots.bisect.calls": (s("roots.bisect").calls / n, count),
        "roots.bisect.evals_per_call": (_ratio(evals("roots.bisect"), s("roots.bisect").calls), per_call),
        "roots.bisect.fails": (s("roots.bisect").fails / n, count),
        "roots.scan_bisect.calls": (s("roots.scan_bisect").calls / n, count),
        "roots.scan_bisect.evals_per_call": (_ratio(evals("roots.scan_bisect"), s("roots.scan_bisect").calls), per_call),
        "roots.scan_bisect.fails": (s("roots.scan_bisect").fails / n, count),
        "reaction.general_equilibrium.calls": (s("reaction.general_equilibrium").calls / n, count),
        "reaction.general_equilibrium.total_s": (s("reaction.general_equilibrium").total_s / n, secs),
        "reaction.general_equilibrium.fails": (s("reaction.general_equilibrium").fails / n, count),
        "reaction.reaction_xi1.calls_per_equilibrium": (_ratio(s("reaction.reaction_xi1").calls, s("reaction.general_equilibrium").calls), "calls/eq"),
        "reaction.foc_residual_r1.calls": (s("reaction.foc_residual_r1").calls / n, count),
        "market.GenericClaims.truncated.calls": (s("market.GenericClaims.truncated").calls / n, count),
        "market.GenericClaims.truncated.self_s": (s("market.GenericClaims.truncated").self_s / n, secs),
        "market.GenericClaims.truncated.fails": (s("market.GenericClaims.truncated").fails / n, count),
        "market.GenericClaims.init_s": (init_s, secs),
        "market.ppf.calls": ((s("market.GenericClaims.ppf").calls + s("market.Exponential.ppf").calls) / n, count),
        "response.response.calls": (s("response.response").calls / n, count),
        "response.indemnity.calls": (s("response.indemnity").calls / n, count),
        "valuation.equilibrium_path.total_s": (s("valuation.equilibrium_path").total_s / n, secs),
        "valuation.path_profile.calls": (s("valuation.path_profile").calls / n, count),
        "valuation.path_profile.self_s": (s("valuation.path_profile").self_s / n, secs),
        "valuation.closed_form_objective.total_s": (s("valuation.closed_form_objective").total_s / n, secs),
        "valuation.ValueIntercept.total_s": (s("valuation.ValueIntercept").total_s / n, secs),
        "simulate.simulate.self_s": (sim.self_s / n, secs),
        "simulate.simulate.paths_per_s": (_ratio(workload.paths_per_op * sim.calls, sim.total_s), per_s),
        "simulate.estimate_objectives.total_s": (s("simulate.estimate_objectives").total_s / n, secs),
        "cli.main.total_s": (s("cli.main").total_s / n, secs),
        "cli.output_bytes": (traced.output_bytes / n, "bytes"),
        "config.build_market_params.total_s": (s("config.build_market_params").total_s / n, secs),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (report.layer_self_s.get(layer, 0.0) / n, secs)
    untraced_s, traced_s = median(plain.scaled_op_s()), median(traced.scaled_op_s())
    metrics["trace.untraced_wall_s"] = (untraced_s, secs)
    metrics["trace.traced_wall_s"] = (traced_s, secs)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    info = {"untraced_operations": len(plain.op_s), "traced_operations": n,
            "spans": len(tracer.spans), "errors": tally.errors}
    return tally, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "reinsgame" / "__init__.py").is_file():
        print(f"no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        with SpeedProbe(numpy=False) as probe:
            start = clock()
            workload.setup(args.seed)
            end = clock()
        print(json.dumps({"setup_s": (end - start) / probe.slowness(start, end),
                          "raw_setup_s": end - start}))
        return 0

    workload.setup(args.seed)
    with SpeedProbe() as probe:
        workload.prepare()
        if args.trace:
            tally, metrics, info = per_layer(workload, args.seed, args.seconds, probe)
        else:
            tally, metrics, info = end_to_end(workload, args.seconds, probe)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exit 1, naming them, if running the package loads any scipy module.

Runs the CLI's ``trajectory`` and ``simulate --paths 1000`` commands, then an
Erlang-2 ``GenericClaims`` equilibrium path, its three objectives and a Monte
Carlo run.  Run it in a fresh interpreter, as pytest itself may load scipy:

    PYTHONPATH=src python tests/no_scipy_check.py
"""
import contextlib
import dataclasses
import io
import math
import sys

import reinsgame as rg
from reinsgame import cli
from reinsgame.market import PARTIES


def erlang2(y):  # Erlang(2, rate 2), mean 1
    return 0.0 if y <= 0.0 else -math.expm1(-2.0 * y) - 2.0 * y * math.exp(-2.0 * y)


def main() -> str | None:
    """None if no scipy module was loaded, else the message to exit with."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["--command", "trajectory"], ["--command", "simulate", "--paths", "1000"]):
            if cli.main(argv) != 0:
                return f"{' '.join(argv[1:])} failed"
    params = dataclasses.replace(rg.default_market_params(), claims=rg.GenericClaims(erlang2))
    path = rg.equilibrium_path(params)
    for party in PARTIES:
        rg.closed_form_objective(party, path, params, 0.0, params.x0(party))
    rg.simulate(path, params, rg.SimConfig(paths=1000, seed=1))
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    if loaded:
        return f"{len(loaded)} scipy modules loaded, among them {', '.join(loaded[:8])}"
    print("no scipy module loaded")
    return None


if __name__ == "__main__":
    sys.exit(main())

"""Time-consistent equilibrium solver for a reinsurance pricing game.

One mean-variance insurer buys layered cover from two price-competing
reinsurers (proportional from the first, excess-of-loss from the second).
The package exposes the closed-form insurer response, the reinsurers'
first-order conditions for arbitrary claim laws, the exponential-claim
fixed point with admissibility clamping, closed-form objectives, and a
reproducible Monte Carlo cross-check.
"""

from .config import default_market_params
from .errors import (ConfigError, ConvergenceError, DegeneratePremiumError,
                     DomainError, IntegrationError, NoRootError, RangeError,
                     ReinsGameError)
from .expo import (EquilibriumResult, G_fun, G_inv, Regime, constrained_equilibrium,
                   e_fun, g_fun, h1, h1_domain, h1_inv, h2,
                   unconstrained_fixed_point)
from .market import (ClaimDistribution, Exponential, GenericClaims, Ledger,
                     MarketParams, PremiumPoint, RateCurve, TruncatedMoments,
                     accumulation, admissible_box, insurer_premium_rate, ledger,
                     premium_rates)
from .reaction import (FocRatios, foc_ratios, foc_residual_r1, foc_residual_r2,
                       general_equilibrium, instantaneous_reward, reaction_xi1,
                       reaction_xi2)
from .response import (ResponseStrategy, full_cession_to_r2, indemnity,
                       no_reinsurance, response)
from .simulate import (ObjectiveEstimate, SimConfig, TerminalSamples,
                       estimate_objectives, simulate)
from .valuation import (ObjectiveValue, StrategyPath, closed_form_objective,
                        constant_path, equilibrium_path, no_reinsurance_path,
                        value_intercepts)

__version__ = "0.1.0"

"""Pointwise maximal leakage analysis of privacy mechanisms.

Computes the per-outcome information leakage of finite-output and Laplace
mechanisms over finite secrets, the leakage of individual entries of
(possibly correlated) databases, and reproduces the correlated-database
construction where a pure DP mechanism leaks almost an entire entry.
"""

__version__ = "0.1.0"

from .leakage import LeakageReport, eps_max, pml, pml_entry, pml_report
from .mechanisms import (FiniteMechanism, LaplaceMechanism, dp_level_finite,
                         dp_level_laplace, l1_sensitivity, laplace_for_query,
                         laplace_log_density, randomized_response)
from .probability import (DatabaseModel, ExplicitJointModel, FiniteDistribution,
                          ProductModel)
from .constructions import (BobModel, CorrelatedBinaryModel, EtaSchedule,
                            bob_pml, calibrated_mechanism, cond_density_binomial,
                            cond_density_closed_form, find_limit_n, lower_bound,
                            marginal_density, pml_d1, sweep)

__all__ = [
    "BobModel",
    "CorrelatedBinaryModel",
    "DatabaseModel",
    "EtaSchedule",
    "ExplicitJointModel",
    "FiniteDistribution",
    "FiniteMechanism",
    "LaplaceMechanism",
    "LeakageReport",
    "ProductModel",
    "bob_pml",
    "calibrated_mechanism",
    "cond_density_binomial",
    "cond_density_closed_form",
    "dp_level_finite",
    "dp_level_laplace",
    "eps_max",
    "find_limit_n",
    "l1_sensitivity",
    "laplace_for_query",
    "laplace_log_density",
    "lower_bound",
    "marginal_density",
    "pml",
    "pml_d1",
    "pml_entry",
    "pml_report",
    "randomized_response",
    "sweep",
]

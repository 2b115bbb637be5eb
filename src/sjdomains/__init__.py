"""Geometry and harmonic analysis on Siegel-Jacobi domains.

Submodules:
  numkit            shared numerical helpers (indices, linear algebra)
  domains           bounded/unbounded models and the partial Cayley transform
  groups            the two Jacobi groups, their isomorphism, and actions
  kernels           automorphy factors, invariant weights, kernel functions
  fockpoly          polynomial engine: bases and kernel expansions
  quad              exact Gaussian moments, exact and Monte Carlo Grams
  discrete_series   twisted actions and the transfer map between the models
  suites            every verification check, as named suites
  cli               command-line front end (console script `sjdomains`);
                    not imported here, so `python -m sjdomains.cli` runs cleanly
"""

from . import (discrete_series, domains, fockpoly, groups, kernels, numkit,
               quad, report, suites)
from .discrete_series import (SampledFunction, pi_apply, pi_star_apply,
                              t_inv, t_star)
from .domains import (SJDiskPoint, SJSpacePoint, cayley_forward,
                      cayley_inverse)
from .fockpoly import (PolyFunction, basis_big_f, basis_f, basis_phi, p_s,
                       q_basis, series_basis)
from .groups import (JacobiElement, JacobiStarElement, act_sj_disk,
                     act_sj_space, theta_inv, theta_iso)
from .kernels import (a_form, jmk, jmk_star, kmk_kernel, kmk_star_kernel,
                      kmk_star_weight)
from .quad import MCConfig, fock_gram
from .report import CheckResult, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "JacobiElement", "JacobiStarElement",
    "MCConfig", "PolyFunction", "SJDiskPoint", "SJSpacePoint",
    "SampledFunction", "VerifyReport", "a_form",
    "act_sj_disk", "act_sj_space", "basis_big_f", "basis_f", "basis_phi",
    "cayley_forward", "cayley_inverse", "discrete_series", "domains",
    "fock_gram", "fockpoly", "groups", "jmk", "jmk_star",
    "kernels", "kmk_kernel", "kmk_star_kernel", "kmk_star_weight",
    "numkit", "p_s", "pi_apply", "pi_star_apply", "q_basis",
    "quad", "report", "series_basis", "suites", "t_inv", "t_star",
    "theta_inv", "theta_iso", "__version__",
]

"""Exact combinatorics of involutions: counting sequences, their 2-adic
structure, and their periods modulo integers.

The library computes, with exact arithmetic throughout:

* counts of permutations whose p-th power is the identity (for p = 2,
  involutions), along several independent routes;
* the bivariate fixed-point/transposition generating polynomials and their
  graph-side companions with dyadic coefficients;
* exact p-adic valuations and the closed forms they satisfy;
* minimal preperiods and periods of the counts modulo m, and of the
  odd factors modulo powers of two, with minimality witnesses;
* the digit prefix of the 2-adic shift governing the one unproven
  valuation column.

Every closed form is backed by an independent brute-force oracle in
:mod:`involution_lab.enumeration`, and the ``involution-lab`` command line
exposes sequence emission, verification batches, period reports, and the
digit-fitting scan.
"""

from .algebra import (
    INFINITY,
    BivariatePoly,
    Valuation,
    odd_part,
    val2,
    val_p,
)
from .errors import (
    ExactnessError,
    InconclusiveError,
    InvolutionLabError,
    ResourceLimitError,
    VerificationError,
)
from .sequences import (
    involution_count,
    involution_count_direct,
    involution_count_via_graphs,
    involution_poly,
    involution_poly_via_graphs,
    graph_count,
    graph_count_signed,
    graph_poly,
    odd_factor,
    odd_factor_closed,
    odd_factor_step,
    pth_root_count,
    signed_involution_count,
)
from .valuations import (
    even_involution_count,
    even_val2_predicted,
    involution_val2,
    odd_involution_count,
    odd_val2_predicted,
    signed_val2_predicted,
    tau_valuation_bound,
)
from .periodicity import (
    PeriodReport,
    involution_mod_period,
    mod_period_law,
    odd_factor_period,
)
from .conjecture import TwoAdicPrefix, fit_shift_digits

__version__ = "0.1.0"

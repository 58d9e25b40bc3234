"""Exact and modular arithmetic for multiple harmonic sums.

The package computes truncated multiple harmonic sums and their weighted
relatives both over the rationals and in the rings Z/p^e (e <= 3),
verifies polynomial identities between them on ranges of arguments, and
checks a registry of Bernoulli-number congruences across primes, with a
CRT-based fitter for recovering unknown rational coefficients.
"""

from .bernoulli import (
    BernoulliCache,
    IndexAboveCap,
    PDividesDenominator,
    bernoulli_exact,
    bernoulli_mod,
    von_staudt_clausen_check,
)
from .compositions import Composition, parse_composition, stuffle
from .congruences import (
    CheckMember,
    CheckReport,
    CongruenceCheck,
    FitResult,
    InsufficientPrimes,
    UnknownCheckId,
    fit_coefficient,
    fit_families,
    get_check,
    registry,
    reports_to_csv,
    reports_to_json,
    run_battery,
    run_check,
    run_scan,
)
from .exactnum import (
    DenominatorDivisibleByP,
    NotAUnit,
    Residue,
    crt_list,
    is_prime,
    primes_in_range,
    rational_reconstruct,
    rational_to_residue,
)
from .identities import (
    IdentityInstance,
    SuiteReport,
    probe_thm31_random,
    run_thm21_suite,
    run_thm31_suite,
)
from .mhs import (
    EXACT_N_CAP,
    PrefixTable,
    eval_formal_sum,
    mhs_exact,
    mhs_mod,
    weighted_sum2,
    weighted_sum3,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BernoulliCache",
    "IndexAboveCap",
    "PDividesDenominator",
    "bernoulli_exact",
    "bernoulli_mod",
    "von_staudt_clausen_check",
    "Composition",
    "parse_composition",
    "stuffle",
    "CheckMember",
    "CheckReport",
    "CongruenceCheck",
    "FitResult",
    "InsufficientPrimes",
    "UnknownCheckId",
    "fit_coefficient",
    "fit_families",
    "get_check",
    "registry",
    "reports_to_csv",
    "reports_to_json",
    "run_battery",
    "run_check",
    "run_scan",
    "DenominatorDivisibleByP",
    "NotAUnit",
    "Residue",
    "crt_list",
    "is_prime",
    "primes_in_range",
    "rational_reconstruct",
    "rational_to_residue",
    "IdentityInstance",
    "SuiteReport",
    "probe_thm31_random",
    "run_thm21_suite",
    "run_thm31_suite",
    "EXACT_N_CAP",
    "PrefixTable",
    "eval_formal_sum",
    "mhs_exact",
    "mhs_mod",
    "weighted_sum2",
    "weighted_sum3",
]

"""Exact computation of Faulhaber formulae.

The coefficients of the polynomial equal to 1^p + ... + n^p are computed
three ways — a direct row-by-row recurrence, a symbolic integration
recurrence, and the classical Bernoulli-number formula — and can be
cross-verified against each other and against brute-force sums.  The two
recurrences are separate code for the same arithmetic; the Bernoulli
formula shares none with them.
All arithmetic is exact rational; there is no floating point.
"""
from .bernoulli import (
    BernoulliTable,
    bernoulli_numbers,
    bernoulli_polynomial,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    faulhaber_via_bernoulli,
)
from .direct import CoefficientRow, direct_coefficients
from .integration import (
    Polynomial,
    integrate_polynomial,
    integration_coefficients,
    integration_step,
    poly_eval,
    polynomial,
    power_sum_polynomial_to_row,
)
from .oracle import evaluate_row, power_sum_bruteforce
from .rationals import ONE, ZERO, OpCounter, rat_add, rat_mul, rat_sub

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CoefficientRow",
    "ONE",
    "OpCounter",
    "Polynomial",
    "ZERO",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "check_difference_identity",
    "check_integral_identity",
    "check_power_sum_identity",
    "direct_coefficients",
    "evaluate_row",
    "faulhaber_via_bernoulli",
    "integrate_polynomial",
    "integration_coefficients",
    "integration_step",
    "poly_eval",
    "polynomial",
    "power_sum_bruteforce",
    "power_sum_polynomial_to_row",
    "rat_add",
    "rat_mul",
    "rat_sub",
]

"""Exact computation of Faulhaber formulae.

The coefficients of the polynomial equal to 1^p + ... + n^p are computed
three independent ways — a direct row-by-row recurrence, a symbolic
integration recurrence, and the classical Bernoulli-number formula — and
can be cross-verified against each other and against brute-force sums.
All arithmetic is exact rational; there is no floating point.
"""
from .bernoulli import (
    BernoulliTable,
    bernoulli_numbers,
    bernoulli_polynomial,
    binomial,
    check_difference_identity,
    check_integral_identity,
    check_power_sum_identity,
    faulhaber_via_bernoulli,
)
from .direct import CoefficientRow, direct_coefficients, next_row
from .integration import (
    Polynomial,
    eval_at_one,
    integrate_polynomial,
    integration_coefficients,
    integration_step,
    poly_eval,
    polynomial,
    power_sum_polynomial_to_row,
    row_to_polynomial,
)
from .oracle import evaluate_row, power_sum_bruteforce
from .rationals import (
    ONE,
    ZERO,
    OpCounter,
    Rational,
    format_rational,
    parse_rational,
    rat_add,
    rat_mul,
    rat_normalize,
    rat_sub,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CoefficientRow",
    "ONE",
    "OpCounter",
    "Polynomial",
    "Rational",
    "ZERO",
    "bernoulli_numbers",
    "bernoulli_polynomial",
    "binomial",
    "check_difference_identity",
    "check_integral_identity",
    "check_power_sum_identity",
    "direct_coefficients",
    "eval_at_one",
    "evaluate_row",
    "faulhaber_via_bernoulli",
    "format_rational",
    "integrate_polynomial",
    "integration_coefficients",
    "integration_step",
    "next_row",
    "parse_rational",
    "poly_eval",
    "polynomial",
    "power_sum_bruteforce",
    "power_sum_polynomial_to_row",
    "rat_add",
    "rat_mul",
    "rat_normalize",
    "rat_sub",
    "row_to_polynomial",
]

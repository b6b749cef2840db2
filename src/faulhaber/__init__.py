"""Exact computation of Faulhaber formulae.

The coefficients of the polynomial equal to 1^p + ... + n^p are computed
three ways — a direct row-by-row recurrence (`direct`), a symbolic
integration recurrence (`integration`), and the classical Bernoulli-number
formula (`bernoulli`) — and can be cross-verified against each other and
against brute-force sums (`oracle`).  The two recurrences are separate code
for the same arithmetic; the Bernoulli formula shares none with them.  The
paths and the oracle share only the plumbing of `rationals`: the records,
the row held as a reduced integer pair, and Horner's scheme on such a pair.
The paper's operation counts belong to the direct recurrence, so `direct`
also holds `OpCounter`, the tally it keeps.
All arithmetic is exact rational; there is no floating point.

The package exports the `__all__` of each of these modules.  Each export
resolves on first access, loading only the module that defines it, so
`import faulhaber` loads none of them and a command of the CLI loads only
the modules it runs.  The cross-verification, with the Bernoulli-polynomial
identities it checks, is the private `_verify`, which `verify` loads.
"""
__version__ = "0.1.0"

# export -> the module that defines it
_EXPORTS = {
    "BernoulliTable": "bernoulli",
    "bernoulli_numbers": "bernoulli",
    "faulhaber_via_bernoulli": "bernoulli",
    "bernoulli_polynomial": "bernoulli",
    "OpCounter": "direct",
    "direct_coefficients": "direct",
    "integration_coefficients": "integration",
    "power_sum_bruteforce": "oracle",
    "evaluate_row": "oracle",
    "CoefficientRow": "rationals",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])

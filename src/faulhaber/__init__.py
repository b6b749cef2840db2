"""Exact computation of Faulhaber formulae.

The coefficients of the polynomial equal to 1^p + ... + n^p are computed
three ways — a direct row-by-row recurrence (`direct`), a symbolic
integration recurrence (`integration`), and the classical Bernoulli-number
formula (`bernoulli`) — and can be cross-verified against each other and
against brute-force sums (`oracle`).  The two recurrences are separate code
for the same arithmetic; the Bernoulli formula shares none with them.  The
paths and the oracle share only the plumbing of `rationals`: the records,
the row held as a reduced integer pair, and Horner's scheme on such a
pair.  The paper's operation counts belong to the direct recurrence, so
`direct` also holds `OpCounter`, the tally it keeps.
All arithmetic is exact rational; there is no floating point.

The package exports the `__all__` of each of these modules.
"""
from .bernoulli import *
from .direct import *
from .integration import *
from .oracle import *
from .rationals import *

__version__ = "0.1.0"

__all__ = (
    bernoulli.__all__
    + direct.__all__
    + integration.__all__
    + oracle.__all__
    + rationals.__all__
)

"""The plumbing every computation path shares, and the direct path's cost model.

Every coefficient in this package is a plain `fractions.Fraction`: exact,
reduced, with `int` numerator and denominator and no floating point.  The
paths and the oracle import only this module, so none of them loads
another's arithmetic.  It holds:

- the record bases `Record` and `FrozenRecord`, and the `CoefficientRow`
  every path returns;
- dense polynomials: tuples of rationals, ascending by power, with
  trailing zeros trimmed (the zero polynomial is the empty tuple), with
  exact evaluation and integration;
- the counted cost model the paper states for the direct recurrence and
  that the benchmark and verification commands check.

`OpCounter` tallies additions/subtractions and multiplications performed
*on rationals*.  Counting is opt-in: a counter is passed explicitly into
`rat_add`, `rat_sub` and `rat_mul` by the one computation that owns it;
plain `Fraction` operator arithmetic stays uncounted.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "ZERO",
    "ONE",
    "OpCounter",
    "rat_add",
    "rat_sub",
    "rat_mul",
    "CoefficientRow",
    "Polynomial",
    "poly_eval",
    "integrate_polynomial",
]

ZERO = Fraction(0)
ONE = Fraction(1)


# Plain value records, the package's data classes without `dataclasses`,
# which imports `inspect`, `ast` and `dis` and builds each class by compiling
# generated source.  A record names its fields in `__slots__`, in constructor
# order, and writes its own `__init__`.


class Record:
    """Fields named by `__slots__`.  Equal to a record of the same class with
    equal fields; unhashable, because its fields may change."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, by `__init__`, and never again.
    Hashable, so a cached instance can be handed to every caller."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, since the default
        # path assigns the fields one by one.
        return type(self), self._fields()


class OpCounter(Record):
    """Running tally of counted rational operations.

    Subtractions count toward `additions`.  Loop-index bookkeeping,
    assignments, and forming a ratio like i/j from two integer counters are
    free under this cost model.
    """

    __slots__ = ("additions", "multiplications")
    additions: int
    multiplications: int

    def __init__(self, additions: int = 0, multiplications: int = 0) -> None:
        self.additions = additions
        self.multiplications = multiplications


def rat_add(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact sum, tallied as one addition when a counter is attached."""
    if counter is not None:
        counter.additions += 1
    return a + b


def rat_sub(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact difference; subtractions share the additions tally."""
    if counter is not None:
        counter.additions += 1
    return a - b


def rat_mul(a: Fraction, b: Fraction, counter: OpCounter | None = None) -> Fraction:
    """Exact product, tallied as one multiplication when counted."""
    if counter is not None:
        counter.multiplications += 1
    return a * b


class CoefficientRow(FrozenRecord):
    """Coefficients a_1..a_{p+1} of the polynomial equal to 1^p + ... + n^p.

    `coefficients[j - 1]` holds the coefficient of n^j, ascending by power.
    The constant term of a power-sum polynomial is always zero and is not
    stored; emitters that need it synthesize a literal zero.

    Rows produced by any of the computation paths satisfy: the entries sum
    to 1, the top entry is 1/(p+1), the entry of n^p is 1/2 for p >= 1, and
    the entry of n^(p-2) is 0 for p >= 3.  Those are theorems checked by
    the test suite, not constructor requirements, so that deliberately
    corrupted rows can be built when exercising mismatch detection.
    """

    __slots__ = ("degree", "coefficients")
    degree: int
    coefficients: tuple[Fraction, ...]

    def __init__(self, degree: int, coefficients: tuple[Fraction, ...]) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if len(coefficients) != degree + 1:
            raise ValueError(
                f"a row of degree {degree} holds {degree + 1} "
                f"coefficients, got {len(coefficients)}"
            )
        super().__init__(degree, coefficients)

    def coefficient(self, power: int) -> Fraction:
        """The coefficient of n**power, for 1 <= power <= degree + 1."""
        if not 1 <= power <= self.degree + 1:
            raise IndexError(
                f"power {power} outside 1..{self.degree + 1} for degree {self.degree}"
            )
        return self.coefficients[power - 1]


Polynomial = tuple[Fraction, ...]


def scaled(f: Polynomial) -> tuple[tuple[int, ...], int]:
    """f over its common denominator: (numerators, d) with d the least
    common multiple of the coefficient denominators and numerators[k] the
    integer d * c_k, so f(t) = sum_k numerators[k] t^k / d."""
    d = lcm(*(c.denominator for c in f))
    return tuple(c.numerator * (d // c.denominator) for c in f), d


def horner(numerators: tuple[int, ...], d: int, x: Fraction | int) -> tuple[int, int]:
    """The value at x of the scaled polynomial (numerators, d), by Horner's
    scheme on integers, as an unreduced pair (numerator, denominator).

    With x = u/v and n + 1 = len(numerators) the value is
    sum_k numerators[k] u^k v^(n-k) / (d v^n).  Horner runs on that
    numerator with a running power of v; the denominator d v^n is positive,
    and equals d at an integer x.
    """
    if not numerators:
        return 0, d
    u, v = x.numerator, x.denominator
    acc = 0
    power = 1  # v ** (number of coefficients folded in so far)
    for c in reversed(numerators):
        acc = acc * u + c * power
        power *= v
    return acc, d * (power // v)


def poly_eval(f: Polynomial, x: Fraction | int) -> Fraction:
    """Exact value of f at x: f scaled to its common denominator, then the
    integer `horner`, so the only Fraction is the one built at the end."""
    return Fraction(*horner(*scaled(f), x))


def integrate_polynomial(f: Polynomial) -> Polynomial:
    """Antiderivative with zero constant term: c_k t^k maps to c_k/(k+1) t^(k+1)."""
    if not f:
        return ()
    # From integers: Fraction(c, k + 1) of a Fraction c takes the slow
    # numbers.Rational path.
    return (ZERO,) + tuple(
        Fraction(c.numerator, c.denominator * (k + 1)) for k, c in enumerate(f))

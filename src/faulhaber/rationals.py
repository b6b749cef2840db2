"""The plumbing every computation path shares.

Every coefficient in this package is exact and rational, with no floating
point.  A `CoefficientRow` holds its entries as integer numerators over
one common denominator, reduced, and gives them as plain reduced
`fractions.Fraction`s on demand.  The paths and the oracle import only
this module, so none of them loads another's arithmetic.  It imports
`fractions` only where it builds a `Fraction`: a command that prints rows
from their pairs never loads it.  It holds:

- the record bases `Record` and `FrozenRecord`, the `CoefficientRow`
  every path returns, and `start_row`, the row both recurrences resume from;
- `scaled`, which puts reduced fractions over their least common
  denominator: the `Scaled` pair every row and polynomial is held as;
- `horner`, the exact value of a polynomial held as integers over one
  denominator, which the oracle and the identity checks of `verify` share.
"""
from __future__ import annotations

from math import lcm

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only
    from fractions import Fraction

__all__ = ["CoefficientRow"]


# A polynomial or row as integers over one denominator: (numerators, d)
# with d > 0 and gcd(d, *numerators) == 1, entry k being numerators[k] / d.
Scaled = tuple[tuple[int, ...], int]


def scaled(ratios: list[tuple[int, int]]) -> Scaled:
    """Reduced fractions, as (numerator, denominator) pairs, over their least
    common denominator d: canonical, since each prime's full power in d is
    in some entry's denominator, over a numerator prime to it."""
    d = lcm(*[den for _, den in ratios])
    return tuple([num * (d // den) for num, den in ratios]), d


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
    Hashable by value: the rows and tables passed from call to call stay fixed."""

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


# No package code calls these two.  They stay only because
# `perfbench/tracer.py` times them for its `rationals.add_s`/`mul_s` probe,
# and go when that probe is reworked.
def rat_add(a: Fraction, b: Fraction) -> Fraction:
    return a + b


def rat_mul(a: Fraction, b: Fraction) -> Fraction:
    return a * b


class CoefficientRow(FrozenRecord):
    """Coefficients a_1..a_{p+1} of the polynomial equal to 1^p + ... + n^p.

    `coefficients[j - 1]` holds the coefficient of n^j, ascending by power.
    The constant term of a power-sum polynomial is always zero and is not
    stored; emitters that need it synthesize a literal zero.

    A row is held as integers over one denominator, and as nothing else:
    `numerators[j - 1]` is `denominator * a_j`, with `denominator` the least
    common multiple of the entries' denominators, so `denominator > 0` and
    `gcd(denominator, *numerators) == 1`.  That form is canonical: two rows
    are equal, and hash alike, exactly when their pairs are, and comparing
    them compares ints.  The paths build rows from their pair with
    `from_scaled`.  The public constructor converts each entry, a `Fraction`
    or an int, to the pair and keeps nothing else; it rejects an empty
    sequence and any entry of another type (a float, a `Decimal`, a numpy
    integer).  `coefficients` and `coefficient` build `Fraction`s from the
    pair at each read.

    Rows produced by any of the computation paths satisfy: the entries sum
    to 1, the top entry is 1/(p+1), the entry of n^p is 1/2 for p >= 1, and
    the entry of n^(p+1-i) is 0 exactly for odd i >= 3, where the Bernoulli
    number b_i is 0.  Those are theorems checked by
    the test suite, not constructor requirements, so that deliberately
    corrupted rows can be built when exercising mismatch detection.
    """

    __slots__ = ("numerators", "denominator")
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coefficients: tuple[Fraction | int, ...]) -> None:
        from fractions import Fraction

        ratios = []
        for k, c in enumerate(coefficients, 1):
            if not isinstance(c, (Fraction, int)):
                raise ValueError(f"coefficient of n^{k} is not a Fraction or int: {c!r}")
            ratios.append(c.as_integer_ratio())
        if not ratios:
            raise ValueError("a row holds a_1 at least, got no coefficients")
        super().__init__(*scaled(ratios))

    @classmethod
    def from_scaled(cls, numerators: tuple[int, ...], denominator: int) -> CoefficientRow:
        """The row a_j = numerators[j - 1] / denominator, from a pair already
        in the canonical form."""
        row = object.__new__(cls)
        FrozenRecord.__init__(row, numerators, denominator)
        return row

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The entries, ascending by power, as reduced Fractions built from
        the pair at each read."""
        from fractions import Fraction

        d = self.denominator
        return tuple([Fraction(c, d) for c in self.numerators])

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coefficients={self.coefficients!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.coefficients,)

    def coefficient(self, power: int) -> Fraction:
        """The coefficient of n**power, for 1 <= power <= degree + 1."""
        if not 1 <= power <= self.degree + 1:
            raise IndexError(
                f"power {power} outside 1..{self.degree + 1} for degree {self.degree}"
            )
        from fractions import Fraction

        return Fraction(self.numerators[power - 1], self.denominator)


def start_row(p: int, start: CoefficientRow | None) -> CoefficientRow:
    """The row a recurrence walks up from to reach degree p: `start`, a row
    of degree at most p, or the degree-0 row [1] (f_0(n) = n)."""
    if p < 0:
        raise ValueError(f"exponent must be >= 0, got {p}")
    if start is None:
        start = CoefficientRow.from_scaled((1,), 1)
    if start.degree > p:
        raise ValueError(f"cannot continue to degree {p} from degree {start.degree}")
    return start


def horner(numerators: tuple[int, ...], d: int, x: int | tuple[int, int]) -> tuple[int, int]:
    """The value at x of the polynomial sum_k numerators[k] t^k / d, by Horner's
    scheme on integers, as an unreduced pair (numerator, denominator).

    x is an int, or the rational u/v as an int pair (u, v) with v > 0.  At
    an int the value is the plain Horner sum over d.  At u/v, with
    n + 1 = len(numerators), it is sum_k numerators[k] u^k v^(n-k) / (d v^n):
    Horner runs on that numerator with a running power of v, and the
    denominator d v^n is positive.
    """
    acc = 0
    if type(x) is int:
        for c in reversed(numerators):
            acc = acc * x + c
        return acc, d
    if not numerators:
        return 0, d
    u, v = x
    power = 1  # v ** (number of coefficients folded in so far)
    for c in reversed(numerators):
        acc = acc * u + c * power
        power *= v
    return acc, d * (power // v)

"""Independent check of the output of `python -m faulhaber`.

Nothing here imports faulhaber.  Expected rows come from Bernoulli numbers
computed by the Akiyama-Tanigawa algorithm, power sums from plain summation,
and the argument grammar is restated from the CLI's documented usage, so a
command the CLI must reject is recognised without asking the CLI.  Output is
compared byte for byte; since every method is held to the same expected
bytes, the three `--method` outputs must also be identical.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import CONVENTIONS, FORMATS, METHODS

# command -> (number of natural positionals, {option: allowed values or None for a flag})
GRAMMAR = {
    "coeffs": (1, {"--method": METHODS, "--format": FORMATS}),
    "eval": (2, {"--check": None}),
    "verify": (1, {}),
    "bench": (1, {}),
    "bernoulli": (1, {"--convention": CONVENTIONS}),
}


def parse(argv: list[str]) -> tuple[str, list[int], dict[str, str | bool]] | None:
    """(command, positionals, options) for a valid argv, None for a usage error."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    arity, allowed = GRAMMAR[argv[0]]
    positionals: list[int] = []
    options: dict[str, str | bool] = {}
    rest = iter(argv[1:])
    for token in rest:
        if token in allowed:
            if allowed[token] is None:
                options[token] = True
                continue
            value = next(rest, None)
            if value not in allowed[token]:
                return None
            options[token] = value
        elif token.isascii() and token.isdigit():
            positionals.append(int(token))
        else:
            return None
    if len(positionals) != arity or (argv[0] == "eval" and positionals[1] < 1):
        return None
    return argv[0], positionals, options


def bernoulli_plus(m: int) -> list[Fraction]:
    """b_0..b_m with b_1 = +1/2, by Akiyama-Tanigawa.

    Every entry of the triangle has a denominator dividing lcm(1..m+1), so
    the triangle is kept in integers scaled by that lcm.
    """
    scale = math.lcm(*range(1, m + 2))
    a: list[int] = []
    numbers = []
    for k in range(m + 1):
        a.append(scale // (k + 1))
        for j in range(k, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        numbers.append(Fraction(a[0], scale))
    return numbers


def render_latex(p: int, row: list[Fraction]) -> str:
    terms = []
    for power in range(p + 1, 0, -1):
        c = row[power - 1]
        if c == 0:
            continue
        variable = "n" if power == 1 else f"n^{{{power}}}"
        magnitude = abs(c)
        if magnitude == 1:
            body = variable
        elif magnitude.denominator == 1:
            body = f"{magnitude.numerator}{variable}"
        else:
            body = rf"\frac{{{magnitude.numerator}}}{{{magnitude.denominator}}}{variable}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(sign + body)
    return "".join(terms)


class Checker:
    """Judges (argv, exit status, stdout) triples; caches what it computes."""

    def __init__(self) -> None:
        self._bernoulli: list[Fraction] = []
        self._rows: dict[int, list[Fraction]] = {}

    def bernoulli(self, m: int) -> list[Fraction]:
        if m >= len(self._bernoulli):
            self._bernoulli = bernoulli_plus(m)
        return self._bernoulli[: m + 1]

    def row(self, p: int) -> list[Fraction]:
        """a_1..a_{p+1}: a_{p+1-i} = C(p+1, i) b_i / (p+1)."""
        if p not in self._rows:
            b = self.bernoulli(p)
            row = [Fraction(0)] * (p + 1)
            for i in range(p + 1):
                row[p - i] = math.comb(p + 1, i) * b[i] / (p + 1)
            self._rows[p] = row
        return self._rows[p]

    def expected_stdout(self, command: str, args: list[int], options: dict) -> str:
        if command == "coeffs":
            p = args[0]
            row = self.row(p)
            fmt = options.get("--format", "plain")
            if fmt == "plain":
                text = " ".join(f"a_{j}={c}" for j, c in enumerate(row, start=1))
            elif fmt == "json":
                payload = {"p": p, "coefficients": [str(c) for c in row]}
                text = json.dumps(payload, separators=(",", ":"))
            else:
                text = render_latex(p, row)
            return text + "\n"
        if command == "eval":
            p, n = args
            return f"{sum(k**p for k in range(1, n + 1))}\n"
        m = args[0]
        numbers = list(self.bernoulli(m))
        if m >= 1 and options.get("--convention", "plus") == "minus":
            numbers[1] = -numbers[1]
        return "".join(f"{i}: {b}\n" for i, b in enumerate(numbers))

    def check(self, argv: list[str], status: int, stdout: bytes) -> bool:
        """True when the CLI's exit status and stdout are right for argv."""
        parsed = parse(argv)
        if parsed is None:
            return status == 2 and stdout == b""
        if status != 0:
            return False
        command, args, options = parsed
        try:
            text = stdout.decode("utf-8")
            if command == "verify":
                return text.splitlines()[-1] == "result: PASS"
            if command == "bench":
                return _bench_ok(args[0], text)
        except (UnicodeDecodeError, ValueError, IndexError):
            return False
        return stdout == self.expected_stdout(command, args, options).encode()


def _bench_ok(p_max: int, text: str) -> bool:
    """Every row's additions and multiplications columns equal p(p+1)/2 + p and
    p(p+1)/2, and the table reaches p_max."""
    rows = [line.split() for line in text.splitlines()[1:]]
    degrees = []
    for row in rows:
        p, additions, multiplications = (int(field) for field in row[:3])
        if additions != p * (p + 1) // 2 + p or multiplications != p * (p + 1) // 2:
            return False
        degrees.append(p)
    return bool(degrees) and max(degrees) == p_max

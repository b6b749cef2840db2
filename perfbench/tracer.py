"""In-process tracing of the faulhaber layers.

While a traced pass runs, the public functions of each module are replaced at
every place the program looks them up -- module globals, `cli.METHODS` and
`cli.FORMATTERS` -- by wrappers that record one span per call; `uninstall`
puts the originals back.  A span is [name, start, end, parent, command,
ints, ops]: `parent` is the index of the enclosing span, `ints` the integer
arguments of the call and `ops` the (additions, multiplications) a counted
`direct_coefficients` call added to its `OpCounter`.
"""
from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# module -> {function: span name}
TARGETS = {
    "faulhaber.cli": {
        "build_parser": "cli.build_parser",
        "run_verification": "cli.verify",
        "format_plain": "cli.format_plain",
        "format_json": "cli.format_json",
        "format_latex": "cli.format_latex",
    },
    "faulhaber.direct": {"direct_coefficients": "direct.coefficients"},
    "faulhaber.integration": {
        "integration_coefficients": "integration.coefficients",
        "integration_step": "integration.step",
    },
    "faulhaber.bernoulli": {
        "bernoulli_numbers": "bernoulli.numbers",
        "bernoulli_polynomial": "bernoulli.polynomial",
        "faulhaber_via_bernoulli": "bernoulli.formula",
        "check_power_sum_identity": "bernoulli.identity_power_sum",
        "check_integral_identity": "bernoulli.identity_integral",
        "check_difference_identity": "bernoulli.identity_difference",
    },
    "faulhaber.oracle": {
        "power_sum_bruteforce": "oracle.bruteforce",
        "evaluate_row": "oracle.evaluate_row",
    },
}
PATHS = ("direct.coefficients", "integration.coefficients", "bernoulli.formula")
IDENTITIES = ("power_sum", "integral", "difference")
NAME, START, END, PARENT, COMMAND, INTS, OPS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.command = 0
        self.largest_row = None  # highest-degree row any path returned
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        counter = None
        if name == "direct.coefficients":
            counter = kwargs.get("counter", args[1] if len(args) > 1 else None)
        before = (counter.additions, counter.multiplications) if counter is not None else None
        ints = [a for a in (*args, *kwargs.values()) if type(a) is int]
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.command, ints, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[OPS] = (counter.additions - before[0],
                         counter.multiplications - before[1])
        if name in PATHS and (
            self.largest_row is None or result.degree > self.largest_row.degree
        ):
            self.largest_row = result
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _patch(self, owner, key, name, fn) -> None:
        self._patches.append((owner, key, fn))
        wrapper = self._wrap(name, fn)
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def install(self) -> None:
        """Wrap every lookup site of every target function."""
        names = {}
        for module, functions in TARGETS.items():
            defining = importlib.import_module(module)
            for attr, name in functions.items():
                names[id(getattr(defining, attr))] = (name, getattr(defining, attr))
        cli = sys.modules["faulhaber.cli"]
        sites = [m for key, m in list(sys.modules.items())
                 if key == "faulhaber" or key.startswith("faulhaber.")]
        for site in sites:
            for key, value in list(vars(site).items()):
                if id(value) in names:
                    self._patch(site, key, *names[id(value)])
        for table in (cli.METHODS, cli.FORMATTERS):
            for key, value in list(table.items()):
                if id(value) in names:
                    self._patch(table, key, *names[id(value)])
        self._patch(argparse.ArgumentParser, "parse_args", "cli.parse_args",
                    argparse.ArgumentParser.parse_args)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patches.clear()


def _ancestors(spans, span):
    while span[PARENT] is not None:
        span = spans[span[PARENT]]
        yield span


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass.  A `_s` figure is the time
    inside the layer's outermost calls; `_self_s` subtracts child spans."""
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time: defaultdict = defaultdict(float)
    entries = terms = row_steps = useful = additions = multiplications = 0
    for span in spans:
        name, duration = span[NAME], span[END] - span[START]
        calls[name] += 1
        if span[PARENT] is not None:
            child_time[span[PARENT]] += duration
        ancestors = [a[NAME] for a in _ancestors(spans, span)]
        if name not in ancestors:
            total[name] += duration
        if name == "bernoulli.numbers":
            entries += span[INTS][0] + 1
        elif name == "oracle.bruteforce":
            terms += span[INTS][1]
        elif name == "cli.verify":
            useful += 3 * (span[INTS][0] + 1)
        elif name in PATHS and "cli.verify" in ancestors:
            row_steps += span[INTS][0] + 1
        if span[OPS]:
            additions += span[OPS][0]
            multiplications += span[OPS][1]

    def self_time(name):
        return sum(s[END] - s[START] - child_time[i]
                   for i, s in enumerate(spans) if s[NAME] == name)

    metrics = {
        "cli.parse_s": total["cli.build_parser"] + total["cli.parse_args"],
        "cli.main_self_s": self_time("cli.main"),
        "cli.verify_self_s": self_time("cli.verify"),
        "cli.verify_row_steps": row_steps,
        "cli.verify_useful_ratio": useful / row_steps if row_steps else 0.0,
        "direct.coefficients_s": total["direct.coefficients"],
        "direct.calls": calls["direct.coefficients"],
        "direct.ops_additions": additions,
        "direct.ops_multiplications": multiplications,
        "integration.coefficients_s": total["integration.coefficients"],
        "integration.step_s": total["integration.step"],
        "integration.calls": calls["integration.coefficients"],
        "bernoulli.numbers_s": total["bernoulli.numbers"],
        "bernoulli.numbers_calls": calls["bernoulli.numbers"],
        "bernoulli.numbers_entries": entries,
        "bernoulli.polynomial_s": total["bernoulli.polynomial"],
        "bernoulli.polynomial_calls": calls["bernoulli.polynomial"],
        "bernoulli.formula_s": total["bernoulli.formula"],
        "bernoulli.identity_checks": sum(
            calls[f"bernoulli.identity_{family}"] for family in IDENTITIES),
        "oracle.bruteforce_s": total["oracle.bruteforce"],
        "oracle.bruteforce_terms": terms,
        "oracle.evaluate_row_s": total["oracle.evaluate_row"],
    }
    for fmt in ("plain", "json", "latex"):
        metrics[f"cli.format_{fmt}_s"] = total[f"cli.format_{fmt}"]
    for family in IDENTITIES:
        metrics[f"bernoulli.identity_{family}_s"] = total[f"bernoulli.identity_{family}"]
    return metrics


def rational_metrics(row, repeats: int = 9) -> dict[str, float]:
    """Time of one `rat_add` and one `rat_mul` on neighbouring coefficients of
    `row`, median of `repeats` sweeps, and the row's size in bits."""
    from faulhaber.rationals import rat_add, rat_mul

    pairs = list(zip(row.coefficients, row.coefficients[1:])) or [
        (row.coefficients[0], row.coefficients[0])]
    metrics = {}
    for name, op in (("add", rat_add), ("mul", rat_mul)):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            samples.append((time.perf_counter() - start) / len(pairs))
        metrics[f"rationals.{name}_s"] = statistics.median(samples)
    metrics["rationals.row_bits"] = sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in row.coefficients)
    return metrics

"""Seeded command sequences for the benchmark workloads.

A workload is one pass: a list of argv lists for `python -m faulhaber`.  The
benchmark repeats the same pass until its time is up, so every pass of a run
does the same work.  Sizes are drawn from narrow bands, so that runs with
different seeds do about the same amount of work and their figures can be
compared with each other.
"""
from __future__ import annotations

import random

METHODS = ("direct", "lemma", "bernoulli")
FORMATS = ("plain", "json", "latex")
CONVENTIONS = ("plus", "minus")

# Commands the CLI must reject with exit status 2 and an empty stdout.
USAGE_ERRORS = (
    ("coeffs", "-1"),
    ("coeffs", "x"),
    ("coeffs", "5", "--method", "taylor"),
    ("coeffs", "5", "--format", "html"),
    ("eval", "3", "0"),
    ("eval", "3"),
    ("bernoulli", "4", "--convention", "both"),
    ("verify",),
    ("bench", "-2"),
    ("frobnicate", "1"),
    (),
)

# Small commands appended to the traced run of every workload, so that every
# layer is called at least once and no per-layer time reads zero.
LAYER_PROBE = (
    ("coeffs", "9"),
    ("coeffs", "9", "--method", "lemma", "--format", "json"),
    ("coeffs", "9", "--method", "bernoulli", "--format", "latex"),
    ("eval", "9", "40", "--check"),
    ("bernoulli", "9"),
    ("verify", "2"),
)


def verify_sweep(rng: random.Random, tiny: bool) -> list[list[str]]:
    """`verify P` at one P from each band: the identity phase plus the
    per-degree recomputation, whose cost grows with P."""
    bands = [(3, 5)] if tiny else [(20, 28), (46, 54), (72, 80)]
    return [["verify", str(rng.randint(lo, hi))] for lo, hi in bands]


def coeffs_high(rng: random.Random, tiny: bool) -> list[list[str]]:
    """All three methods at one low and one high P, then one `bench P`:
    big-integer `Fraction` work inside each path."""
    bands = [(8, 12)] if tiny else [(400, 430), (670, 700)]
    bench_band = (6, 10) if tiny else (540, 560)
    commands = []
    for lo, hi in bands:
        p = str(rng.randint(lo, hi))
        commands += [["coeffs", p, "--method", method] for method in METHODS]
    commands.append(["bench", str(rng.randint(*bench_band))])
    return commands


def cli_mix(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Many short commands, where start-up, parsing and formatting dominate.
    The share of each kind is fixed; the arguments are drawn."""
    coeffs, evals, bernoullis, errors = (3, 2, 2, 1) if tiny else (16, 12, 10, 2)
    commands = []
    for _ in range(coeffs):
        commands.append([
            "coeffs", str(rng.randint(0, 60)),
            "--method", rng.choice(METHODS), "--format", rng.choice(FORMATS),
        ])
    for k in range(evals):
        command = ["eval", str(rng.randint(0, 60)), str(rng.randint(1, 10_000))]
        commands.append(command + ["--check"] if k % 2 == 0 else command)
    for _ in range(bernoullis):
        commands.append([
            "bernoulli", str(rng.randint(0, 60)),
            "--convention", rng.choice(CONVENTIONS),
        ])
    commands += [list(rng.choice(USAGE_ERRORS)) for _ in range(errors)]
    rng.shuffle(commands)
    return commands


# Fixed standard-library programs, each run as `python -c CODE` between
# commands, with the time it took on the machine the baseline was measured
# on.  Their time tracks the machine's speed for the kind of work a workload
# does; run.py scales each command's time by nominal / (the reference's time
# just before and after the command).
COMPUTE_REFERENCE = (
    "from fractions import Fraction\n"
    "a = []\n"
    "for m in range(110):\n"
    "    a.append(Fraction(1, m + 1))\n"
    "    for j in range(m, 0, -1):\n"
    "        a[j - 1] = j * (a[j - 1] - a[j])\n",
    0.09,
)
STARTUP_REFERENCE = (
    "import argparse, fractions, json\nargparse.ArgumentParser().parse_args([])\n",
    0.075,
)
REFERENCES = {
    "verify-sweep": COMPUTE_REFERENCE,
    "coeffs-high": COMPUTE_REFERENCE,
    "cli-mix": STARTUP_REFERENCE,
}

WORKLOADS = {
    "verify-sweep": verify_sweep,
    "coeffs-high": coeffs_high,
    "cli-mix": cli_mix,
}


def generate(name: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The pass of workload `name` for `seed`; the same seed gives the same pass."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)

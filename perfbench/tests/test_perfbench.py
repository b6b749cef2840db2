"""Self-tests of the benchmark.  Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checker import Checker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny_run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    """(last stdout line, result file) of a tiny run."""
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--tiny", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    record = cwd / ".bench_results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return line, json.loads(record.read_text())


@pytest.fixture(scope="module")
def runs() -> dict:
    cache: dict = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            cache[workload, trace] = tiny_run(workload, trace)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(runs, workload, trace):
    line, record = runs(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for key in ("python", "cores", "git_sha", "seed"):
        assert key in record
    assert all(m["samples"] >= 1 for m in record["metrics"].values())
    if not trace:
        assert record["extra"]["fail_ratio"]["value"] == 0
        assert "cmd_tail_s" in record["extra"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat(runs, workload):
    first, _ = runs(workload, 1)
    again, _ = tiny_run(workload, 1)
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] == "count"}
    assert counts == {name: again["metrics"][name]["value"] for name in counts}
    assert counts["bernoulli.polynomial_calls"] > 0
    assert counts["direct.ops_additions"] > counts["direct.ops_multiplications"] > 0


def test_same_seed_same_commands():
    for name in WORKLOADS:
        assert generate(name, 3) == generate(name, 3)
        assert generate(name, 3) != generate(name, 4)


def _copy_benchmark(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_output_counts_in_fail_ratio(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    main = tmp_path / "src" / "faulhaber" / "__main__.py"
    main.write_text("import sys\nfrom faulhaber.cli import main\n"
                    "status = main()\nprint('corrupted')\nsys.exit(status)\n")
    line, record = tiny_run("cli-mix", 0, cwd=tmp_path)
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]
    assert record["extra"]["fail_ratio"]["value"] == line["failed"] / line["attempted"]


@pytest.mark.parametrize("argv, status, stdout", [
    (["coeffs", "2"], 0, b"a_1=1/6 a_2=1/2 a_3=1/4\n"),
    (["coeffs", "2"], 0, b"a_1=1/6 a_2=1/2\n"),
    (["coeffs", "2"], 1, b"a_1=1/6 a_2=1/2 a_3=1/3\n"),
    (["eval", "2", "3"], 0, b"15\n"),
    (["verify", "3"], 0, b"\xff\xfe"),
    (["verify", "3"], 0, b""),
    (["verify", "3"], 0, b"result: FAIL\n"),
    (["bench", "4"], 0, b"p additions\n4 13 10 14 10 0.1\n"),
    (["bench", "4"], 0, b"p additions\n4 x\n"),
    (["coeffs", "-1"], 2, b"a_1=1\n"),
    (["coeffs", "-1"], 0, b""),
])
def test_checker_rejects_wrong_output_without_raising(argv, status, stdout):
    assert Checker().check(argv, status, stdout) is False


def test_checker_accepts_documented_examples():
    checker = Checker()
    assert checker.check(["coeffs", "2"], 0, b"a_1=1/6 a_2=1/2 a_3=1/3\n")
    assert checker.check(["coeffs", "3", "--format", "latex"], 0,
                         b"\\frac{1}{4}n^{4}+\\frac{1}{2}n^{3}+\\frac{1}{4}n^{2}\n")
    assert checker.check(["coeffs", "2", "--format", "json"], 0,
                         b'{"p":2,"coefficients":["1/6","1/2","1/3"]}\n')
    assert checker.check(["eval", "2", "3", "--check"], 0, b"14\n")
    assert checker.check(["bernoulli", "4"], 0, b"0: 1\n1: 1/2\n2: 1/6\n3: 0\n4: -1/30\n")


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

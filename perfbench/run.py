"""Benchmark of the faulhaber command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
With --trace 0 the workload's commands run as `python -m faulhaber ...`
subprocesses started one at a time from this process (closed loop, one
client) and the end-to-end metrics are reported; each command's time is
scaled by a fixed reference program timed just before and after it
(`REFERENCES` in workloads.py), which cancels the machine's speed swings
while keeping the raw figures in the record.  With --trace 1 the same
commands run in this process with every layer's public functions wrapped
(tracer.py), and the per-layer metrics are reported.  Every output is
checked, untimed, by checker.py.  The program measured is the checkout's
own `src`; the last line of stdout is one JSON object, and a fuller record
goes to .bench_results/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checker import Checker
from workloads import (LAYER_PROBE, REFERENCES, STARTUP_REFERENCE, USAGE_ERRORS,
                       WORKLOADS, generate)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_CODE = "import faulhaber.cli as cli; cli.build_parser()"
SETUP_RUNS = 11
REFERENCE_EVERY_S = 1.0  # measured command time between two reference samples
# Every run ends within 180 s; a command still running at this point is killed.
DEADLINE = time.monotonic() + 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _wait(proc: subprocess.Popen) -> tuple[bytes, bytes, int, object]:
    """Read the child's stdout and stderr to the end, then reap it with wait4."""
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    try:
        with selectors.DefaultSelector() as selector:
            for fd in chunks:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                left = DEADLINE - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"{proc.args} still running at the run's deadline")
                for key, _ in selector.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(c) for c in chunks.values())
    return out, err, proc.returncode, usage


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, bytes, bytes, int, object]:
    """Run `python argv...` to completion: (wall s, stdout, stderr, status, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    out, err, status, usage = _wait(proc)
    return time.perf_counter() - start, out, err, status, usage


def timed_code(code: str, env: dict[str, str]) -> float:
    wall, _, err, status, _ = spawn(["-c", code], env)
    if status != 0:
        raise SystemExit(f"error: `python -c {code!r}` failed:\n{err.decode(errors='replace')}")
    return wall


def prepare(env: dict[str, str]) -> None:
    """Abort unless faulhaber resolves to this checkout's src, then run one
    untimed CLI invocation so that compiling __pycache__ is not timed."""
    _, out, err, status, _ = spawn(
        ["-c", "import faulhaber.cli; print(faulhaber.cli.__file__)"], env)
    where = Path(out.decode().strip()).resolve() if status == 0 else None
    if where is None or SRC.resolve() not in where.parents:
        raise SystemExit(f"error: faulhaber does not resolve to {SRC}: "
                         f"{where or err.decode(errors='replace').strip()}")
    spawn(["-m", "faulhaber", "coeffs", "1"], env)


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": pct,
                    "samples": len(ordered)}
    return None


def done(measured: float, last: float, seconds: float) -> bool:
    """Stop at the pass boundary nearest to `seconds` of measured time."""
    return measured + last / 2 >= seconds


class Reference:
    """A fixed program from workloads.py, timed between measurements."""

    def __init__(self, reference: tuple[str, float], env: dict[str, str]) -> None:
        self.code, self.nominal_s = reference
        self.env = env
        self.times = [timed_code(self.code, env)]

    def scale(self) -> float:
        """Time the reference again; nominal over the mean of the timings just
        before and just after what was measured since the previous call."""
        self.times.append(timed_code(self.code, self.env))
        return self.nominal_s / ((self.times[-2] + self.times[-1]) / 2)


@dataclass
class Command:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    status: int
    stdout: bytes
    scale: float = 1.0


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def run_end_to_end(name: str, commands: list[list[str]], seconds: float,
                   env: dict[str, str]) -> dict:
    setup_reference = Reference(STARTUP_REFERENCE, env)
    setup, setup_raw = [], []
    for _ in range(SETUP_RUNS):
        setup_raw.append(timed_code(SETUP_CODE, env))
        setup.append(setup_raw[-1] * setup_reference.scale())
    reference = Reference(REFERENCES[name], env)
    checker = Checker()
    passes: list[list[Command]] = []
    attempted = failed = 0
    while not passes or not done(sum(c.wall for p in passes for c in p),
                                 sum(c.wall for c in passes[-1]), seconds):
        results: list[Command] = []
        unscaled = since = 0
        for argv in commands:
            wall, out, _, status, usage = spawn(["-m", "faulhaber", *argv], env)
            results.append(Command(argv, wall, usage.ru_utime + usage.ru_stime,
                                   usage.ru_maxrss / 1024, status, out))
            since += wall
            if since >= REFERENCE_EVERY_S or len(results) == len(commands):
                scale = reference.scale()
                for command in results[unscaled:]:
                    command.scale = scale
                unscaled, since = len(results), 0
        passes.append(results)
        for command in results:
            attempted += 1
            failed += not checker.check(command.argv, command.status, command.stdout)

    def figures(scaled: bool) -> dict:
        def t(command, value):
            return value * command.scale if scaled else value
        walls = [t(c, c.wall) for p in passes for c in p]
        return {
            "setup_s": metric(statistics.median(setup if scaled else setup_raw),
                              "s", len(setup)),
            "wall_s": metric(statistics.median(sum(t(c, c.wall) for c in p) for p in passes),
                             "s", len(passes)),
            "cpu_s": metric(statistics.median(sum(t(c, c.cpu) for c in p) for p in passes),
                            "s", len(passes)),
            "cmd_p50_s": metric(statistics.median(walls), "s", len(walls)),
            "cmd_tail_s": tail(walls),
        }

    metrics = figures(scaled=True)
    rss = [c.rss_mb for p in passes for c in p]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "metrics": {**{k: m for k, m in metrics.items() if k != "cmd_tail_s"},
                    "peak_rss_mb": metric(max(rss), "MB", len(rss))},
        "extra": {
            "cmd_tail_s": metrics["cmd_tail_s"],
            "fail_ratio": metric(failed / attempted, "ratio", attempted),
        },
        "raw": {
            **figures(scaled=False),
            "setup_reference_s": metric(statistics.median(setup_reference.times), "s",
                                        len(setup_reference.times)),
            "reference_s": metric(statistics.median(reference.times), "s",
                                  len(reference.times)),
        },
        "pass_walls": [sum(c.wall for c in p) for p in passes],
    }


def run_in_process(main, argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return status, out.getvalue().encode()


def cli_import_time(env: dict[str, str]) -> dict:
    """Fresh-interpreter import of faulhaber.cli minus a bare interpreter."""
    with_import, bare = [], []
    for _ in range(SETUP_RUNS):
        with_import.append(timed_code("import faulhaber.cli", env))
        bare.append(timed_code("pass", env))
    return metric(statistics.median(with_import) - statistics.median(bare), "s", SETUP_RUNS)


def run_traced(name: str, commands: list[list[str]], seconds: float,
               env: dict[str, str]) -> dict:
    from tracer import Tracer, layer_metrics, rational_metrics

    import_s = cli_import_time(env)
    sys.path.insert(0, str(SRC))
    import faulhaber.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: faulhaber imported from {cli.__file__}, not {SRC}")
    commands = commands + [list(argv) for argv in LAYER_PROBE]
    # One untimed call of each cheap command kind, so that one-time costs of
    # the first in-process call are not charged to the untraced pass.
    for argv in [*(c for c in LAYER_PROBE if c[0] != "verify"), USAGE_ERRORS[0]]:
        run_in_process(cli.main, list(argv))
    checker = Checker()
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    measured = last = 0.0
    while not samples or not done(measured, last, seconds):
        tracer = Tracer()
        walls = {False: 0.0, True: 0.0}
        outputs = []
        # Each command runs untraced and traced back to back, in alternating
        # order, so that drift in machine speed falls on both sides alike.
        for i, argv in enumerate(commands):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                start = time.perf_counter()
                if traced:
                    tracer.command = i
                    tracer.install()
                    try:
                        outputs.append(run_in_process(
                            lambda a: tracer.call("cli.main", cli.main, a), argv))
                    finally:
                        tracer.uninstall()
                else:
                    outputs.append(run_in_process(cli.main, argv))
                walls[traced] += time.perf_counter() - start
        last = walls[False] + walls[True]
        measured += last
        for argv, (status, out) in zip((a for a in commands for _ in range(2)), outputs):
            attempted += 1
            failed += not checker.check(argv, status, out)
        figures = layer_metrics(tracer.spans)
        figures.update(rational_metrics(tracer.largest_row))
        figures["trace.overhead_ratio"] = walls[True] / walls[False]
        for key, value in figures.items():
            samples.setdefault(key, []).append(value)
    write_spans(name, tracer.spans, commands)
    # Counts repeat exactly from pass to pass; median_low keeps them integers.
    metrics = {key: metric((statistics.median_low if unit_of(key) == "count"
                            else statistics.median)(values), unit_of(key), len(values))
               for key, values in samples.items()}
    metrics["cli.import_s"] = import_s
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(samples["trace.overhead_ratio"]),
        "metrics": dict(sorted(metrics.items())),
        "extra": {},
    }


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_ratio") else "count"


def write_spans(name: str, spans: list[list], commands: list[list[str]]) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-spans.json"
    path.write_text(json.dumps({"commands": commands, "fields": [
        "name", "start", "end", "parent", "command", "ints", "ops"], "spans": spans}))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(name: str, seed: int, result: dict) -> None:
    print(f"workload {name}  seed {seed}  passes {result['passes']}  "
          f"commands {result['attempted']}")
    for key, m in {**result["metrics"], **result["extra"]}.items():
        if m is None:
            print(f"  {key:<30} omitted (fewer than ten samples beyond any percentile)")
            continue
        note = f"p{m['percentile']:g}, " if "percentile" in m else ""
        print(f"  {key:<30} {m['value']:<14.6g} {m['unit']:<6} ({note}n={m['samples']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    env = child_env()
    prepare(env)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = run_traced if args.trace else run_end_to_end
    meta = {"python": platform.python_version(), "cores": os.cpu_count(),
            "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}
    results = {}
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        result = run(name, generate(name, args.seed, args.tiny), args.seconds, env)
        result = {"workload": name, **meta, **result,
                  "commands": generate(name, args.seed, args.tiny)}
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        report(name, args.seed, result)
        results[name] = result

    prefix = len(names) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): {"value": m["value"], "unit": m["unit"]}
            for name, r in results.items() for key, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

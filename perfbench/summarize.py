"""Summarise benchmark result files across runs.

    python3 perfbench/summarize.py [--out FILE] .bench_results/*-trace0.json ...

For every workload and metric it prints the median and quartiles of the runs
given, and the spread (third minus first quartile, as a share of the median)
beside the metric's bound from BENCHMARK.json.  --out writes the same figures
as one JSON record, a point of the performance trajectory.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(results: list[dict]) -> dict:
    groups: dict[str, dict[str, list[dict]]] = {}
    for result in results:
        group = groups.setdefault(result["workload"], {})
        for key, m in {**result["metrics"], **result.get("extra", {})}.items():
            if m is not None:
                group.setdefault(f"trace{result['trace']}/{key}", []).append(m)
    summary = {}
    for workload, metrics in sorted(groups.items()):
        summary[workload] = {}
        for key, samples in sorted(metrics.items()):
            values = [m["value"] for m in samples]
            q1, median, q3 = quartiles(values)
            summary[workload][key] = {
                "unit": samples[0]["unit"], "runs": len(values), "median": median,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "samples_per_run": statistics.median(m["samples"] for m in samples),
            }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    results = [json.loads(path.read_text()) for path in args.files]
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = summarize(results)
    for workload, metrics in summary.items():
        print(workload)
        for key, s in metrics.items():
            bound = bounds.get(key.split("/", 1)[1]) if key.startswith("trace0/") else None
            flag = "" if bound is None else f"  bound {bound:g}" + (
                "  ABOVE bound/3" if s["spread"] > bound / 3 else "")
            print(f"  {key:<40} {s['median']:<12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} runs {s['runs']}{flag}")
    if args.out:
        first = results[0]
        record = {
            "python": first["python"], "cores": first["cores"],
            "git_sha": first["git_sha"], "seconds": first["seconds"],
            "seeds": sorted({r["seed"] for r in results}),
            "workloads": summary,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

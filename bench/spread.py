"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--workloads oracle,exact] [--out FILE]

For every workload, runs ``bench/run.py`` once per seed (0, 1, ...) with the
``run_seconds`` of ``BENCHMARK.json`` and prints, for each end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median next to a third of the metric's
bound.  With ``--traced`` it also makes one traced run per workload.  With
``--out`` the figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    golden = run.load_json(run.BENCH / "golden.json")
    report: dict = {
        "measured_commit": golden["source_commit"],
        "python": sys.version.split()[0],
        "cpu": f"{cpu_model()}, {os.cpu_count()} logical CPUs",
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [bench(workload, seed, spec["run_seconds"], 0) for seed in range(args.seeds)]
        entry: dict = {"runs": len(results), "all_correct": all(r["correct"] for r in results),
                       "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload:8} {metric['name']:12} median {median:10.4f} {metric['unit']:3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"(bound/3 {metric['bound'] / 3:.3f}) {flag}", flush=True)
        if args.traced:
            traced = bench(workload, 0, spec["run_seconds"], 1)
            entry["traced_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

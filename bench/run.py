"""involution-lab benchmark: end-to-end CLI workloads, and a traced run for
per-layer numbers.

    python3 bench/run.py --workload oracle --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  ``--workload`` names one workload of
``bench/design.json`` (or ``all``, which runs each in turn).  The seed picks
the ``tmod`` moduli from fixed bands; the other workloads are fixed.

``--trace 0`` (the timed run): one warm-up job, then passes until
``--seconds`` is used up.  A pass is two set-up jobs (interpreter start,
``import involution_lab.cli``, parser build), two runs of
``bench/reference.py`` and the workload's jobs.  Every job is a fresh child
process, one at a time, so the package's module-level caches never carry
over.  Stdout goes through a pipe into sha256 and is checked against
``bench/golden.json``.  ``wall_rel`` is the sum over jobs of the median, over
passes, of the job's wall time divided by its pass's mean reference time;
see bench/reference.py.

``--trace 1`` (the traced run): one pass without tracing for reference,
then traced passes (``bench/tracer.py``, one child per job) until the
budget is used up.  Spans are written to ``.bench_out/`` at the end.

A summary goes to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_PER_PASS = 2
SETUP_KEY = "setup"
SETUP_CODE = "import involution_lab.cli as cli; cli.build_parser()"
REFERENCE_KEY = "reference"
HARD_LIMIT_S = 150.0  # jobs still running after this are killed and fail


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no golden outputs)."""


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"missing {path}") from None


def child_env() -> dict:
    # A pinned, minimal environment: no PYTHONINTMAXSTRDIGITS or other
    # interpreter knobs leak in from the caller.
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
    }


def workload_jobs(design: dict, workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists, with the seed's band picks filled in."""
    rng = random.Random(seed)
    bands = {k: v for k, v in design["moduli_bands"].items() if k != "about"}
    picks = {band: rng.choice(bands[band]) for band in sorted(bands)}
    return [[arg.format(**picks) for arg in job] for job in design["workloads"][workload]["jobs"]]


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


class Runner:
    """Starts children one at a time and checks each against the goldens."""

    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed: list[str] = []

    def spawn(self, cmd: list[str], keep_stdout: bool = False) -> dict:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        digest, size, kept = hashlib.sha256(), 0, []
        with proc.stdout:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
                if keep_stdout:
                    kept.append(chunk)
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": time.perf_counter() - start,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode,
            "sha256": digest.hexdigest(),
            "bytes": size,
            "stdout": b"".join(kept),
        }

    def check(self, key: str, exit_code: int, sha256: str) -> bool:
        self.attempted += 1
        want = self.golden.get(key)
        ok = want is not None and want["exit"] == exit_code and want["sha256"] == sha256
        if not ok:
            self.failed.append(key)
            print(f"FAILED {key!r}: exit {exit_code}, sha256 {sha256[:16]}, "
                  f"golden {want}", file=sys.stderr)
        return ok

    def run_cli(self, argv: list[str]) -> dict:
        res = self.spawn([sys.executable, "-m", "involution_lab.cli", *argv])
        self.check(job_key(argv), res["exit"], res["sha256"])
        return res

    def run_setup(self) -> dict:
        res = self.spawn([sys.executable, "-c", SETUP_CODE])
        self.check(SETUP_KEY, res["exit"], res["sha256"])
        return res

    def run_reference(self) -> dict:
        res = self.spawn([sys.executable, str(BENCH / "reference.py")])
        self.check(REFERENCE_KEY, res["exit"], res["sha256"])
        return res

    def run_traced(self, argv: list[str]) -> dict:
        res = self.spawn([sys.executable, str(BENCH / "tracer.py"), *argv], keep_stdout=True)
        try:
            trace = json.loads(res["stdout"].decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            trace = {"exit": res["exit"] or 1, "sha256": "", "stdout_bytes": 0,
                     "stats": {}, "counts": {}, "cache_bits": 0, "spans": []}
        self.check(job_key(argv), trace["exit"], trace["sha256"])
        trace["wall"] = res["wall"]
        return trace

    @property
    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def repeat_passes(run_pass, seconds: float, runner: Runner) -> list:
    """Run whole passes while the next one is expected to fit in ``seconds``;
    always at least one."""
    start = time.monotonic()
    passes = [run_pass()]
    while not runner.out_of_time:
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(run_pass())
    return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------- timed run

def timed_run(runner: Runner, jobs: list[list[str]], seconds: float) -> tuple[dict, list[str]]:
    runner.run_setup()  # warm-up: byte-compiles the package on a fresh checkout
    setup: list[float] = []
    reference: list[float] = []

    def one_pass() -> list[dict]:
        # Set-up and reference samples are spread over the run, like the job
        # samples, so they see the same phases of the host's speed.
        pass_reference = []
        for _ in range(SETUP_PER_PASS):
            setup.append(runner.run_setup()["wall"])
            pass_reference.append(runner.run_reference()["wall"])
        reference.append(statistics.fmean(pass_reference))
        return [runner.run_cli(job) for job in jobs]

    passes = repeat_passes(one_pass, seconds, runner)
    job_medians = [statistics.median(p[j]["wall"] for p in passes) for j in range(len(jobs))]
    rel_medians = [statistics.median(p[j]["wall"] / ref for p, ref in zip(passes, reference))
                   for j in range(len(jobs))]
    pass_walls = [sum(r["wall"] for r in p) for p in passes]
    pass_rss = [max(r["rss_mb"] for r in p) for p in passes]
    metrics = {
        "wall_s": sum(job_medians),
        "wall_rel": sum(rel_medians),
        "peak_rss_mb": statistics.median(pass_rss),
        "setup_s": statistics.median(setup),
        "fail_ratio": len(runner.failed) / runner.attempted,
    }
    q1, _, q3 = quartiles(pass_walls)
    lines = [f"  {len(passes)} passes x {len(jobs)} jobs; pass wall q1 {q1:.3f} s, q3 {q3:.3f} s; "
             f"reference median {statistics.median(reference):.4f} s"]
    for j, job in enumerate(jobs):
        rss = max(p[j]["rss_mb"] for p in passes)
        lines.append(f"    {job_medians[j]:8.3f} s {rss:8.1f} MB  {job_key(job)}")
    return metrics, lines


# -------------------------------------------------------------- traced run

def merge_pass(traces: list[dict]) -> dict:
    stats: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for t in traces:
        for name, row in t["stats"].items():
            acc = stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return {
        "stats": stats,
        "counts": counts,
        "cache_bits": max(t["cache_bits"] for t in traces),
        "stdout_bytes": sum(t["stdout_bytes"] for t in traces),
        "wall": sum(t["wall"] for t in traces),
    }


def layer_metrics(agg: dict, untraced_wall: float, design: dict, workload: str) -> dict:
    stats, counts = agg["stats"], agg["counts"]

    def self_s(*names: str) -> float:
        return sum(stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def calls(name: str) -> int:
        return stats.get(name, (0, 0, 0))[0]

    def per(value: float, count: int, scale: float) -> float:
        return value / count * scale if count else 0.0

    module_self = {
        layer: sum(row[2] for name, row in stats.items() if name.split(".")[0] == layer) / 1e9
        for layer in design["layers"]
    }
    cache_gets = counts.get("cache_hit", 0) + counts.get("cache_extended", 0)
    m = {
        "algebra.dyadic_new": counts.get("dyadic_new", 0),
        "algebra.poly_mul_calls": calls("algebra.poly_mul"),
        "algebra.poly_mul_self_s": self_s("algebra.poly_mul"),
        "algebra.poly_evaluate_self_s": self_s("algebra.poly_evaluate"),
        "algebra.val2_calls": calls("algebra.val2"),
        "algebra.val2_self_s": self_s("algebra.val2"),
        "sequences.involution_count_self_s": self_s("sequences.involution_count"),
        "sequences.signed_count_self_s": self_s("sequences.signed_involution_count"),
        "sequences.cache_bits": agg["cache_bits"],
        "sequences.cache_hit_ratio": per(counts.get("cache_hit", 0), cache_gets, 1.0),
        "sequences.graph_route_self_s": self_s(
            "sequences.graph_count", "sequences.graph_count_signed",
            "sequences.involution_count_via_graphs", "sequences.involution_poly_via_graphs",
            "sequences.odd_factor_closed"),
        "sequences.poly_cache_self_s": self_s("sequences.involution_poly", "sequences.graph_poly"),
        "enumeration.pth_roots_self_s": self_s("enumeration.pth_roots"),
        "enumeration.roots_emitted": counts.get("roots_emitted", 0),
        "enumeration.refined_class_self_s": self_s("enumeration.refined_class"),
        "enumeration.multigraphs_self_s": self_s("enumeration.multigraphs"),
        "enumeration.graphs_emitted": counts.get("graphs_emitted", 0),
        "enumeration.us_per_graph": per(self_s("enumeration.multigraphs"),
                                        counts.get("graphs_emitted", 0), 1e6),
        "enumeration.graph_weight_self_s": self_s("enumeration.graph_weight"),
        "valuations.table_row_self_s": self_s("valuations.table_row"),
        "cli.stdout_bytes": agg["stdout_bytes"],
        "conjecture.fit_self_s": self_s("conjecture.fit_shift_digits", "conjecture.even_count_val2"),
        "conjecture.k_scanned": counts.get("k_scanned", 0),
        "periodicity.odd_prefix_self_s": self_s("periodicity.odd_factor_mod_prefix"),
        "periodicity.mod_period_self_s": self_s("periodicity.involution_mod_period"),
        "periodicity.states_stepped": counts.get("states_stepped", 0),
        "periodicity.ns_per_state": per(self_s("periodicity.involution_mod_period"),
                                        counts.get("states_stepped", 0), 1e9),
        "trace_overhead_s": agg["wall"] - untraced_wall,
        "trace.loaded_share": sum(module_self[layer] for layer in design["workloads"][workload]["loads"])
        / agg["wall"],
    }
    for layer, value in module_self.items():
        m[f"{layer}.self_s"] = value
    for name in check_names(design):
        m[f"checks.{name}_s"] = stats.get(f"checks.{name}", (0, 0, 0))[1] / 1e9
    return m


def check_names(design: dict) -> list[str]:
    names = []
    for spec in design["workloads"].values():
        for job in spec["jobs"]:
            if job[0] == "verify" and "--check" in job:
                name = job[job.index("--check") + 1]
                if name not in names:
                    names.append(name)
    return names


def traced_run(runner: Runner, jobs: list[list[str]], seconds: float, design: dict,
               workload: str, seed: int) -> tuple[dict, list[str]]:
    start = time.monotonic()
    untraced = sum(runner.run_cli(job)["wall"] for job in jobs)
    remaining = max(seconds - (time.monotonic() - start), 0.0)
    passes = repeat_passes(lambda: [runner.run_traced(job) for job in jobs], remaining, runner)
    per_pass = [layer_metrics(merge_pass(p), untraced, design, workload) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    OUT.mkdir(exist_ok=True)
    spans = {
        "workload": workload, "seed": seed, "span_fields": ["name", "parent", "start_ns", "end_ns"],
        "jobs": [{"pass": i, "job": j, "argv": jobs[j], "spans": t["spans"]}
                 for i, p in enumerate(passes) for j, t in enumerate(p)],
    }
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    lines = [f"  {len(passes)} traced passes; untraced pass {untraced:.3f} s; spans in {path.relative_to(ROOT)}"]
    return metrics, lines


# -------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "involution_lab" / "cli.py").is_file():
            raise BenchError(f"no involution-lab sources under {ROOT / 'src'}; "
                             "run from the root of a source checkout")
        spec = load_json(ROOT / "BENCHMARK.json")
        design = load_json(BENCH / "design.json")
        golden = load_json(BENCH / "golden.json")["jobs"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = list(design["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in design["workloads"]:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(design['workloads'])} or all")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    result_metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        runner = Runner(golden, deadline)
        jobs = workload_jobs(design, name, args.seed)
        if args.trace:
            metrics, lines = traced_run(runner, jobs, args.seconds, design, name, args.seed)
        else:
            metrics, lines = timed_run(runner, jobs, args.seconds)
        attempted += runner.attempted
        failed += len(runner.failed)
        print(f"workload {name} (seed {args.seed}, trace {args.trace})")
        for line in lines:
            print(line)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in listed:
            value = metrics[metric["name"]]
            result_metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:36} {value:>16.6g} {metric['unit']}")
        if not args.trace:
            print(f"  {'wall_s':36} {metrics['wall_s']:>16.6g} s (not gated; see wall_rel)")
            print(f"  {'fail_ratio':36} {metrics['fail_ratio']:>16.6g} "
                  f"({len(runner.failed)} of {runner.attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the golden exit code and stdout sha256 of every benchmark job.

    python3 bench/capture_golden.py

Run from the root of a source checkout, at the commit whose outputs are
taken as correct.  Every job of every workload is run once, with each member
of each moduli band, plus the set-up job; the result replaces
``bench/golden.json``.  A job that does not exit 0 is reported and makes the
script fail, because the timed workloads hold only jobs that succeed.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import run


def all_jobs(design: dict) -> list[list[str]]:
    bands = {k: v for k, v in design["moduli_bands"].items() if k != "about"}
    jobs: list[list[str]] = []
    for spec in design["workloads"].values():
        for template in spec["jobs"]:
            used = sorted(b for b in bands if any("{" + b + "}" in arg for arg in template))
            for values in itertools.product(*(bands[b] for b in used)):
                picks = dict(zip(used, values))
                job = [arg.format(**picks) for arg in template]
                if job not in jobs:
                    jobs.append(job)
    return jobs


def main() -> int:
    design = run.load_json(run.BENCH / "design.json")
    runner = run.Runner({}, time.monotonic() + 3600)
    golden: dict[str, dict] = {}
    bad = []
    cmds = [(run.SETUP_KEY, [sys.executable, "-c", run.SETUP_CODE]),
            (run.REFERENCE_KEY, [sys.executable, str(run.BENCH / "reference.py")])]
    cmds += [(run.job_key(job), [sys.executable, "-m", "involution_lab.cli", *job])
             for job in all_jobs(design)]
    for key, cmd in cmds:
        res = runner.spawn(cmd)
        golden[key] = {"exit": res["exit"], "sha256": res["sha256"], "bytes": res["bytes"]}
        print(f"{res['wall']:7.2f} s {res['rss_mb']:8.1f} MB exit {res['exit']}  {key}")
        if res["exit"] != 0:
            bad.append(key)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT).stdout.strip() or None
    doc = {"source_commit": commit, "python": sys.version.split()[0], "jobs": golden}
    (run.BENCH / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    if bad:
        print(f"jobs that did not exit 0: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

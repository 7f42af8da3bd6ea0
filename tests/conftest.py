"""Shared test helper: one run of the interpreter in a fresh process, with the
peak memory and time of that run alone."""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"

# The interpreter arguments that run the command line.
CLI = ("-m", "involution_lab.cli")

# A wrapper interpreter whose only child is the run, so its children's
# ru_maxrss (kilobytes on Linux) is that run's peak RSS and their user plus
# system time its CPU time.  It hashes the child's stdout as it arrives, and
# sends back a line of figures followed by that stdout when asked to keep it.
_WRAPPER = (
    "import hashlib, resource, subprocess, sys, time\n"
    "keep, argv = sys.argv[1] == 'keep', sys.argv[2:]\n"
    "start = time.perf_counter()\n"
    "proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE)\n"
    "digest, kept = hashlib.sha256(), []\n"
    "for chunk in iter(lambda: proc.stdout.read(1 << 16), b''):\n"
    "    digest.update(chunk)\n"
    "    if keep:\n"
    "        kept.append(chunk)\n"
    "code = proc.wait()\n"
    "seconds = time.perf_counter() - start\n"
    "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
    "print(code, digest.hexdigest(), seconds, usage.ru_maxrss,\n"
    "      usage.ru_utime + usage.ru_stime, flush=True)\n"
    "sys.stdout.buffer.write(b''.join(kept))\n"
)


class FreshRun(NamedTuple):
    code: int
    sha256: str  # of stdout
    stdout: bytes  # empty unless kept
    seconds: float  # wall time
    peak_kb: int
    cpu_seconds: float


def fresh_run(*argv: str, keep_stdout: bool = False) -> FreshRun:
    """Run ``python *argv`` (say ``fresh_run(*CLI, "verify")``) in a fresh
    process with the package on its path, and return its exit code, the
    sha256 of its stdout (and the stdout itself when ``keep_stdout``), its
    wall seconds, peak KB and CPU seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER, "keep" if keep_stdout else "hash", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    figures, _, stdout = proc.stdout.partition(b"\n")
    code, sha256, seconds, peak_kb, cpu_seconds = figures.split()
    return FreshRun(int(code), sha256.decode(), stdout, float(seconds), int(peak_kb),
                    float(cpu_seconds))

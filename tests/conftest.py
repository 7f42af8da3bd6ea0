"""Shared test helpers: one run of the interpreter in a fresh process, with the
peak memory and time of that run alone; and the exact numbers of the
valuation columns, read in n order."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

from involution_lab.sequences import pth_root_counts, removal_step, stepped
from involution_lab.twoadic import COLUMNS, column_number

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
    stderr: bytes
    seconds: float  # wall time
    peak_kb: int
    cpu_seconds: float


def fresh_run(*argv: str, keep_stdout: bool = False) -> FreshRun:
    """Run ``python *argv`` (say ``fresh_run(*CLI, "verify")``) in a fresh
    process with the package on its path, and return its exit code, the
    sha256 of its stdout (and the stdout itself when ``keep_stdout``), its
    stderr, its wall seconds, peak KB and CPU seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER, "keep" if keep_stdout else "hash", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    figures, _, stdout = proc.stdout.partition(b"\n")
    code, sha256, seconds, peak_kb, cpu_seconds = figures.split()
    return FreshRun(int(code), sha256.decode(), stdout, proc.stderr, float(seconds),
                    int(peak_kb), float(cpu_seconds))


def exact_numbers(n_stop: int) -> Iterator[tuple[int, dict[str, int]]]:
    """(n, the exact number of each COLUMNS kind at n) for n < n_stop: the
    numbers ``valuations.valuation_report`` takes val2 of, from t(n) and s(n)
    streamed in n order instead of read point by point, O(n) steps each."""
    counts = zip(range(n_stop), pth_root_counts(2), stepped(removal_step(1, 1, -1), 2))
    for n, t, s in counts:
        yield n, {kind: column_number(kind, n, t, s) for kind in COLUMNS}

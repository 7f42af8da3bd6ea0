"""Byte-identical gate for the command line.

Each gate command is replayed in-process; its exit code and the sha256 of
its stdout must equal the recorded values in ``tests/data/cli_golden.json``.
A refactor that changes any printed byte fails here.  The benchmark's
t mod m jobs are replayed the same way against ``bench/golden.json``, which
is only read here.

The record is rewritten (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pytest

from involution_lab.cli import _SEQ_VALUES, main
from test_periodicity import BAND_MODULI

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"

# The benchmark's jobs that scan t mod m: no gate command reaches their
# moduli, so only the benchmark would see their bytes change.
BENCH_T_MOD_JOBS = [f"period --t-mod {m}" for m in BAND_MODULI] + [
    "verify --check thm62 --m-max 999", "verify --check thm63 --m-max 960",
]

_CHECKS = (
    "coeffs", "cor31", "cor53", "cross", "fibersum", "lemma21", "lemma51",
    "lemma64", "lemma65", "prop42", "table1", "table2", "thm23", "thm32",
    "thm33", "thm41", "thm52", "thm54", "thm55", "thm62", "thm63", "thm66",
    "weights",
)
# One non-default invocation of every check that reads a flag.
_CHECK_OVERRIDES = (
    "lemma21 --p 5", "thm23 --p 3 --n-max 40", "cor31 --n-max 6",
    "thm32 --n-max 50", "thm33 --n-max 100", "thm41 --n-max 15",
    "prop42 --n-max 6", "lemma51 --k-max 1", "thm52 --k-max 20",
    "cor53 --k-max 20", "thm54 --k-max 20", "thm55 --k-max 20",
    "lemma64 --s-max 5", "lemma65 --s-max 4 --n-max 32", "thm62 --m-max 31",
    "thm63 --m-max 24", "thm66 --s-max 4", "weights --n-max 5",
    "fibersum --n-max 6", "coeffs --n-max 20", "cross --n-max 0",
)

GATE_COMMANDS = (
    [["seq", "--kind", kind, "--to", "60"] for kind in _SEQ_VALUES]
    + [["seq", "--kind", "tau", "--p", "3", "--to", "60"]]
    + [["table", "--k-max", "50"]]
    + [["verify", "--check", name] for name in _CHECKS]
    + [
        ["period", "--t-mod", "12", "--expect-paper"],
        ["period", "--beta-mod-2s", "3", "--expect-paper"],
        ["rho", "--k-max", "1000"],
    ]
    + [["verify", "--check", *line.split()] for line in _CHECK_OVERRIDES]
    + [
        ["period", "--beta-mod-2s", "1", "--format", "json"],
        ["period", "--beta-mod-2s", "2", "--format", "json"],
        ["period", "--beta-mod-2s", "12"],
        ["period", "--t-mod", "7", "--expect-paper"],
        ["period", "--t-mod", "12", "--format", "json"],
        ["verify", "--check", "thm66", "--s-max", "8"],
        ["table", "--k-max", "1000"],
        ["table", "--k-max", "30", "--format", "json"],
    ]
    # Past Python's 4,300-digit int-to-str limit (t(n) has 4,564 digits at
    # n = 3000), which seq never meets: it prints decimal values.
    + [["seq", "--kind", kind, "--to", "3000"] for kind in ("t_signed", "t_even", "t_odd")]
    + [["seq", "--kind", "t_even", "--to", "3000", "--format", "json"]]
    # t, beta and g to 3000 as well (4,588, 4,362 and 4,137 digits).
    + [["seq", "--kind", kind, "--to", "3000"] for kind in ("t", "beta", "g")]
)


def replay(argv: list[str]) -> dict:
    """Exit code and stdout digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"argv": list(argv), "exit": code, "sha256": digest}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_gate_covers_every_command():
    assert [entry["argv"] for entry in _recorded()] == GATE_COMMANDS


@pytest.mark.parametrize("entry", _recorded(), ids=lambda e: " ".join(e["argv"]))
def test_output_is_byte_identical(entry, monkeypatch):
    monkeypatch.delenv("INVOLUTION_LAB_CAP", raising=False)
    assert replay(entry["argv"]) == entry


@pytest.mark.parametrize("job", BENCH_T_MOD_JOBS)
def test_benchmark_t_mod_job_is_byte_identical(job, monkeypatch):
    monkeypatch.delenv("INVOLUTION_LAB_CAP", raising=False)
    want = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["jobs"][job]
    start = time.perf_counter()
    got = replay(job.split())
    seconds = time.perf_counter() - start
    assert (got["exit"], got["sha256"]) == (want["exit"], want["sha256"])
    assert seconds < 1


if __name__ == "__main__":
    os.environ.pop("INVOLUTION_LAB_CAP", None)
    records = [replay(argv) for argv in GATE_COMMANDS]
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(" " + json.dumps(record) for record in records)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)

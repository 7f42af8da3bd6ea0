"""Command-line contract tests: output shapes, determinism, and the exit
code protocol (0 pass, 1 verification failure, 2 usage, 3 inconclusive)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from involution_lab import checks
from involution_lab.cli import main
from involution_lab.errors import ResourceLimitError
from involution_lab.sequences import involution_count, odd_factor

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_involution_counts(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "t", "--to", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "0,1"
        assert lines[-1] == "10,9496"

    def test_odd_factors(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "beta", "--to", "7")
        assert code == 0
        assert out.splitlines()[-1] == "7,29"

    def test_graph_counts(self, capsys):
        # The corrected n=21 value, not the misprinted reference cell.
        code, out, _ = run(capsys, "seq", "--kind", "g", "--to", "21")
        assert code == 0
        assert out.splitlines()[-1] == "21,99862594"

    def test_tau_with_p(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "tau", "--p", "3", "--to", "9")
        assert code == 0
        assert out.splitlines()[-1] == "9,5769"

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "t_even", "--to", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][-1] == {"n": "4", "value": "4"}

    def test_range_and_kind_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "seq", "--kind", "nope", "--to", "4")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(capsys, "seq", "--kind", "t", "--to", "-3")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(capsys, "seq", "--kind", "t", "--to", "4", "--p", "3")
        assert exc.value.code == 2

    # The last prime would take about 10**9 trial divisions to test.
    @pytest.mark.parametrize("p", ["4", "0", "1", "-3", "1000000000000000003"])
    def test_nonprime_p_is_usage_error(self, capsys, p):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "seq", "--kind", "tau", "--p", p, "--to", "4")
        assert exc.value.code == 2
        assert "--p must be a prime" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, n, value", [
        ("t", 2995, involution_count), ("beta", 3100, odd_factor),
    ])
    def test_values_past_int_digit_limit(self, capsys, kind, n, value):
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out, _ = run(capsys, "seq", "--kind", kind, "--from", str(n), "--to", str(n))
        assert code == 0
        assert get_limit() == limit
        digits = out.splitlines()[1].removeprefix(f"{n},")
        assert len(digits) > 4300 and digits.isdigit()
        # Parse in short chunks, each under the interpreter's digit limit.
        parsed = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i : i + 1000]
            parsed = parsed * 10 ** len(chunk) + int(chunk)
        assert parsed == value(n)

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "seq", "--kind", "g_alt", "--to", "21")
        _, second, _ = run(capsys, "seq", "--kind", "g_alt", "--to", "21")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(capsys, "seq", "--kind", "t", "--to", "3", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[-1] == "3,4"


class TestTable:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--k-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,k,r,ord_t,")
        row6 = lines[7].split(",")
        assert row6[:7] == ["6", "1", "2", "2", "4", "1", "1"]

    def test_unknown_cells(self, capsys):
        code, out, _ = run(capsys, "table", "--k-max", "0", "--format", "json")
        doc = json.loads(out)
        row0 = doc["rows"][0]
        assert row0["ord_t_odd"] == "inf"
        assert row0["predicted_t_odd"] == "unknown"


class TestVerify:
    def test_named_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "lemma21", "--p", "3", "--n-max", "7")
        assert code == 0
        assert out.startswith("lemma21: PASS")

    def test_polynomial_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "thm41", "--n-max", "20")
        assert code == 0

    def test_reference_table2(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "table2")
        assert code == 0
        assert "22 g(1,-1) reference cells" in out

    def test_reference_table1_known_misprints(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "table1")
        assert code == 1
        assert "row n=20" in out and "row n=21" in out
        assert "known misprints" in out

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "nosuch")
        assert exc.value.code == 2

    def test_check_range_override(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "thm32", "--n-max", "60")
        assert code == 0
        assert "n<=60" in out

    def test_explicit_zero_is_used_as_given(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "cross", "--n-max", "0")
        assert code == 0
        assert "n<=0" in out
        code, out, _ = run(capsys, "verify", "--check", "thm62", "--m-max", "1")
        assert code == 0
        assert "m<=1" in out

    def test_range_without_cells_is_usage_error(self, capsys):
        # No odd modulus is at most 0, so a PASS would be vacuous.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "thm62", "--m-max", "0")
        assert exc.value.code == 2
        assert "no cell" in capsys.readouterr().err

    def test_negative_m_max_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "thm63", "--m-max", "-4")
        assert exc.value.code == 2

    def test_negative_n_max_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "cross", "--n-max", "-1")
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "lemma21 --p 0 --n-max 5",
        "thm23 --p 0",
        "lemma21 --p 4",
        "thm32 --p 1 --n-max 3",
        "thm23 --p 1000000000000000003 --n-max 1",
    ])
    def test_nonprime_p_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", *argv.split())
        assert exc.value.code == 2
        assert "--p must be a prime" in capsys.readouterr().err

    def test_explicit_p_is_used_as_given(self):
        # p = 0 is not replaced by the default p = 2 or by every prime.
        with pytest.raises(ValueError, match="prime"):
            checks.CHECKS["lemma21"]({"p": 0, "n_max": 3})
        with pytest.raises(ValueError, match="prime"):
            checks.CHECKS["thm23"]({"p": 0, "n_max": 3})
        assert checks.CHECKS["thm23"]({"p": 3, "n_max": 5}) == (
            True, "valuation bound verified for p in (3,), n<=5"
        )

    @pytest.mark.parametrize("argv", [
        "thm32 --s-max 9",
        "table1 --n-max 5",
        "lemma64 --p 3",
        "thm62 --m-max 5 --k-max 2",
    ])
    def test_flag_the_check_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", *argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not read" in captured.err

    def test_all_validates_every_range_before_running(self, capsys):
        # lemma64's range starts at s = 3; no check may print before that.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "all", "--s-max", "2")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lemma64" in captured.err and "no cell" in captured.err

    def test_dispatch_goes_through_the_registry(self, capsys, monkeypatch):
        calls = []

        def stub(params):
            calls.append(params)
            return True, "stubbed"

        monkeypatch.setitem(checks.CHECKS, "thm32", stub)
        code, out, _ = run(capsys, "verify", "--check", "thm32", "--n-max", "7")
        assert code == 0
        assert out == "thm32: PASS: stubbed\n"
        assert len(calls) == 1 and calls[0]["n_max"] == 7

    @pytest.mark.parametrize("cap", ["0", "5,0", "0,8", "-3"])
    def test_env_cap_below_one_is_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", cap)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "fibersum", "--n-max", "4")
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_zero_cap_is_used_as_given(self):
        with pytest.raises(ResourceLimitError):
            checks.CHECKS["fibersum"]({"n_max": 4, "vertex_cap": 0})
        with pytest.raises(ResourceLimitError):
            checks.CHECKS["weights"]({"n_max": 4, "root_cap": 0})

    def test_env_cap_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "50")
        code, out, _ = run(capsys, "verify", "--check", "lemma21", "--n-max", "8")
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_env_cap_pair(self, capsys, monkeypatch):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "100000,8")
        code, out, _ = run(capsys, "verify", "--check", "fibersum", "--n-max", "8")
        assert code == 0

    def test_env_cap_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "lots")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "fibersum", "--n-max", "4")
        assert exc.value.code == 2


def _readme_default(default) -> str:
    if callable(default):  # lemma21's --n-max default depends on --p
        by_p = "; ".join(f"p={p}: {default({'p': p})}" for p in (2, 3, 5))
        return f"{by_p}; larger p: {default({'p': 7})}"
    return "none" if default is None else str(default)


def test_readme_check_table_matches_registry():
    expected = []
    for name in sorted(checks.ROWS):
        _, flags, _ = checks.ROWS[name]
        if not flags:
            expected.append(f"| `{name}` | — | — | — |")
        for key, (default, first) in flags.items():
            read = key.replace("_", " ") if key.endswith("_cap") else f"`{checks.option(key)}`"
            first_cell = "—" if first is None else first
            expected.append(f"| `{name}` | {read} | {_readme_default(default)} | {first_cell} |")
    section = README.read_text(encoding="utf-8").split("### Checks\n", 1)[1].split("\n#", 1)[0]
    assert [line for line in section.splitlines() if line.startswith("| `")] == expected


class TestPeriod:
    def test_odd_modulus(self, capsys):
        code, out, err = run(capsys, "period", "--t-mod", "15", "--expect-paper")
        assert code == 0
        assert out.splitlines()[1].startswith("15,0,15,")
        assert "PASS" in err

    def test_even_modulus_json(self, capsys):
        code, out, _ = run(
            capsys, "period", "--t-mod", "12", "--expect-paper", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["preperiod"] == 6
        assert doc["period"] == 3
        assert doc["matches_expected"] is True

    def test_odd_factor_modulus(self, capsys):
        code, out, _ = run(capsys, "period", "--beta-mod-2s", "3", "--expect-paper")
        assert code == 0
        assert out.splitlines()[1].startswith("8,0,16,")

    def test_small_s_reports_without_expectation(self, capsys):
        code, out, _ = run(capsys, "period", "--beta-mod-2s", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["modulus"] == 4
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", "--beta-mod-2s", "2", "--expect-paper")
        assert exc.value.code == 2

    def test_inconclusive_window_is_exit_3(self, capsys):
        code, _, err = run(capsys, "period", "--t-mod", "12", "--window", "5")
        assert code == 3
        assert "no state repetition" in err

    @pytest.mark.parametrize("argv", [
        "--t-mod 12 --window -1",
        "--t-mod 12 --window 0",
        "--beta-mod-2s 2 --window 0",
        "--beta-mod-2s 5 --window -4",
    ])
    def test_nonpositive_window_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", *argv.split())
        assert exc.value.code == 2
        assert "--window must be positive" in capsys.readouterr().err

    def test_window_with_beta_is_usage_error(self, capsys):
        # --window is the state cap of --t-mod only; the 2-adic window
        # follows from s.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", "--beta-mod-2s", "3", "--window", "100")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window only applies to --t-mod" in captured.err

    def test_huge_beta_window_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "period", "--beta-mod-2s", "30")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "more than the cap of 10000000 steps" in err

    def test_requires_exactly_one_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", "--t-mod", "3", "--beta-mod-2s", "3")
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", ["table --k-max 100000000", "rho --k-max 100000000"])
def test_huge_column_window_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "more than the cap of 10000000 steps" in err


@pytest.mark.parametrize("argv", ["table --k-max 2000000", "period --beta-mod-2s 20"])
def test_costly_window_is_refused_at_once(capsys, argv):
    # Under the step cap, but each step would work on residues of one to two
    # million bits: the bit-step budget refuses before any stepping.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "bit-steps" in err


class TestRho:
    def test_single_constraint(self, capsys):
        code, out, _ = run(capsys, "rho", "--k-max", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["digits"] == [1, 1, 0]
        assert doc["undetermined_from"] == 3
        assert doc["violations"] == []

    def test_mod_sixteen_needs_k_thirteen(self, capsys):
        _, out, _ = run(capsys, "rho", "--k-max", "13")
        assert json.loads(out)["digits"] == [1, 1, 0, 1, 0]

    def test_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "rho", "--k-max", "0")
        assert exc.value.code == 2
        for bits in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "rho", "--k-max", "5", "--bits", bits)
            assert exc.value.code == 2

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "rho", "--k-max", "50")
        _, second, _ = run(capsys, "rho", "--k-max", "50")
        assert first == second


@pytest.mark.parametrize("argv", [
    "seq --kind g --to 3",
    "table --k-max 3",
    "period --t-mod 3",
    "rho --k-max 3",
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--output", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"involution-lab: cannot write --output {target}: No such file or directory"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    "seq --kind t --to 3",
    "table --k-max 3",
    "period --t-mod 3",
    "rho --k-max 10",
])
def test_failing_write_is_usage_error(capsys, argv):
    # /dev/full opens, then every write fails with ENOSPC.
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--output", "/dev/full"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "involution-lab: cannot write --output /dev/full: No space left on device"
    ]


def test_cli_does_not_import_fractions():
    # fractions pulls in decimal; a fresh interpreter shows what a CLI run
    # loads, since other tests in this process have imported both.
    script = (
        "import contextlib, io, json, sys\n"
        "from involution_lab import cli\n"
        "loaded = [sorted({'fractions', 'decimal'} & set(sys.modules))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['rho', '--k-max', '100'], ['period', '--beta-mod-2s', '8'],\n"
        "                 ['table', '--k-max', '5']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "        loaded.append(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], [], []]

"""Command-line contract tests: output shapes, determinism, and the exit
code protocol (0 pass, 1 verification failure, 2 usage, 3 inconclusive)."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from involution_lab import checks, cli, enumeration, periodicity, sequences, twoadic, valuations
from involution_lab.algebra import BivariatePoly
from involution_lab.cli import main
from involution_lab.enumeration import ConstrainedGraph, RefinedClass
from involution_lab.errors import ExactnessError, ResourceLimitError
from involution_lab.sequences import involution_count, odd_factor

from conftest import CLI, fresh_run

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

    @pytest.mark.parametrize("error, exit_code", [
        (ExactnessError("broken"), 1), (ResourceLimitError("broken"), 3),
    ])
    def test_rows_are_written_as_they_are_computed(self, capsys, monkeypatch, error, exit_code):
        real = cli._SEQ_VALUES["t"]

        def values(one, p):
            for n, value in enumerate(real(one, p)):
                if n == 5:
                    raise error
                yield value

        monkeypatch.setitem(cli._SEQ_VALUES, "t", values)
        code, out, err = run(capsys, "seq", "--kind", "t", "--to", "10")
        assert code == exit_code
        assert out == "n,value\n0,1\n1,1\n2,2\n3,4\n4,10\n"
        assert err == "involution-lab: broken\n"

    def test_inexact_step_exits_1(self, capsys, monkeypatch):
        # t(n) / 3 is inexact at n = 0; the trap stops the stream there.
        real = cli._SEQ_VALUES["t"]
        monkeypatch.setitem(cli._SEQ_VALUES, "t", lambda one, p: (v / 3 for v in real(one, p)))
        code, out, err = run(capsys, "seq", "--kind", "t", "--to", "10")
        assert code == 1
        assert out == "n,value\n"
        assert err == "involution-lab: seq: a decimal step was not exact (Inexact)\n"

    def test_quotient_with_remainder_exits_1(self, capsys, monkeypatch):
        # One factor of two too many at n = 3: the step from n = 2 to 3
        # divides 2 beta(2) + 2 beta(1) = 4 by 2**3.
        real = sequences.involution_val2
        monkeypatch.setattr(sequences, "involution_val2", lambda n: real(n) + (n == 3))
        code, out, err = run(capsys, "seq", "--kind", "beta", "--to", "10")
        assert code == 1
        assert out == "n,value\n0,1\n1,1\n2,1\n"
        assert err == "involution-lab: inputs 1, 1 are not consecutive odd factors at n=2\n"

    @pytest.mark.parametrize("kind, value", [
        ("t", involution_count), ("t_signed", sequences.signed_involution_count),
        ("t_even", valuations.even_involution_count), ("t_odd", valuations.odd_involution_count),
        ("beta", odd_factor), ("g", sequences.graph_count), ("g_alt", sequences.graph_count_signed),
        ("tau --p 2", lambda n: sequences.pth_root_count(n, 2)),
        ("tau --p 3", lambda n: sequences.pth_root_count(n, 3)),
        ("tau --p 5", lambda n: sequences.pth_root_count(n, 5)),
    ])
    def test_every_kind_matches_the_library(self, capsys, kind, value):
        code, out, _ = run(capsys, "seq", "--kind", *kind.split(), "--to", "300")
        assert code == 0
        assert out.splitlines()[1:] == [f"{n},{value(n)}" for n in range(301)]

    @pytest.mark.parametrize("kind", ["t_even", "t_odd"])
    def test_halves_read_the_one_column_rule(self, capsys, monkeypatch, kind):
        # An odd number to halve from n = 3 on, by the rule in twoadic.COLUMNS.
        number_of, halved, name = twoadic.COLUMNS[kind]
        monkeypatch.setitem(twoadic.COLUMNS, kind, (lambda t, s: number_of(t, s) + (t > 2), halved, name))
        code, out, err = run(capsys, "seq", "--kind", kind, "--to", "10")
        assert code == 1
        assert out.splitlines() == ["n,value"] + [f"{n},{valuations._exact_count(n, kind)}"
                                                  for n in range(3)]
        assert err == f"involution-lab: {name} is odd at n=3\n"

    # Recorded from the int routes; the stdouts are 84 and 80 MB.
    @pytest.mark.parametrize("kind, sha256", [
        ("t", "b35988204fed42018db3b2f9ca4cbd4d24cabddea896eceac27b042932881471"),
        ("beta", "3731b34fd4ad3214eee3c3c5d21cfdff6c7b06af78d0728f3d92a02b9bded91c"),
    ], ids=["t", "beta"])
    def test_large_prefix_stays_small_and_fast(self, kind, sha256):
        # A fresh interpreter, so the CPU time and peak RSS are this run's
        # alone; CPU time, not wall time, so a busy host does not fail it.
        # The int route took 22.6 s and 55 MB for t on a 2-vCPU host.
        run = fresh_run(*CLI, "seq", "--kind", kind, "--to", "10000")
        assert run.code == 0
        assert run.sha256 == sha256
        assert run.cpu_seconds < 3
        assert run.peak_kb < 30 * 1024

    def test_closed_pipe_exits_quietly(self):
        # The reader stops after three lines; the writer must not trace back.
        proc = subprocess.Popen(
            [sys.executable, "-m", "involution_lab.cli", "seq", "--kind", "t", "--to", "100000"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert lines == [b"n,value\n", b"0,1\n", b"1,1\n"]
        assert err == b""

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

    @pytest.mark.parametrize("name, kinds, verdict", [
        ("thm52", ("t_signed",), "n=2 (t_signed): computed INFINITY, predicted 0"),
        ("cor53", ("t_even", "t_odd"), "n=6 (t_even): computed 1, predicted 0"),
        ("thm54", ("t_even",), "n=4 (t_even): computed 2, predicted 0"),
        ("thm55", ("t_odd",), "n=1 (t_odd): computed INFINITY, predicted 0"),
        # The exponent half of thm33 reads its predictions the same way.
        ("thm33", ("t",), "n=2: val2 of count is 1, closed form 0"),
    ])
    def test_parity_check_names_its_first_counterexample(self, capsys, monkeypatch,
                                                         name, kinds, verdict):
        for kind in kinds:
            monkeypatch.setitem(valuations._PREDICTED, kind, lambda n: 0)
        code, out, _ = run(capsys, "verify", "--check", name)
        assert code == 1
        assert out == f"{name}: FAIL: {verdict}\n"

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

    def test_lemma21_places_a_p_cycle_at_p_7(self, monkeypatch):
        # From p = 7 on, --n-max defaults to p: 721 roots at p = 7, the
        # identity and 720 single 7-cycles, so a cap of 720 refuses.
        run = fresh_run(*CLI, "verify", "--check", "lemma21", "--p", "7", keep_stdout=True)
        assert (run.code, run.stdout) == (0, b"lemma21: PASS: fiber law verified for p=7, n<=7\n")
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "720,8")
        run = fresh_run(*CLI, "verify", "--check", "lemma21", "--p", "7", keep_stdout=True)
        assert run.code == 3
        assert b"enumeration of 721 p-th roots exceeds the cap of 720" in run.stdout

    def test_lemma21_at_p_13_refuses_before_walking(self):
        # 1 + 12! roots at n = 13 exceed the default root cap: exit 3, at once.
        run = fresh_run(*CLI, "verify", "--check", "lemma21", "--p", "13", keep_stdout=True)
        assert run.code == 3
        assert b"enumeration of 479001601 p-th roots" in run.stdout
        assert run.cpu_seconds < 1

    # Walked n by n, cor31 and weights ran about 15 s before the root walk
    # at n = 15 refused.  Both caps are checked at n_max before either walk.
    @pytest.mark.parametrize("name,n_max,reason", [
        ("cor31", 15, "enumeration of 10349536 p-th roots exceeds the cap of 10000000"),
        ("weights", 15, "enumeration of 10349536 p-th roots exceeds the cap of 10000000"),
        ("fibersum", 17, "9 vertices exceed the vertex cap of 8"),
        ("prop42", 17, "9 vertices exceed the vertex cap of 8"),
    ], ids=["cor31", "weights", "fibersum", "prop42"])
    def test_caps_refuse_before_walking(self, name, n_max, reason):
        run = fresh_run(*CLI, "verify", "--check", name, "--n-max", str(n_max), keep_stdout=True)
        assert (run.code, run.stdout) == (3, f"{name}: INCONCLUSIVE: {reason}\n".encode())
        assert run.cpu_seconds < 1

    def test_coeffs_names_a_planted_wrong_coefficient(self, monkeypatch):
        real = sequences.involution_polys

        def planted():
            for n, poly in enumerate(real()):
                if n == 5:
                    poly = poly + BivariatePoly.monomial(3, 1)
                yield poly

        monkeypatch.setattr(sequences, "involution_polys", planted)
        assert checks.CHECKS["coeffs"]({"n_max": 8}) == (
            False, "n=5: coefficient at x^3 y^1 is 11, want 10")

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

    def test_env_root_cap_names_predicted_count(self, capsys, monkeypatch):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "9495")
        code, out, _ = run(capsys, "verify", "--check", "cor31", "--n-max", "10")
        assert code == 3
        assert out == "cor31: INCONCLUSIVE: enumeration of 9496 p-th roots exceeds the cap of 9495\n"

    @pytest.mark.parametrize("name", ["fibersum", "prop42"])
    def test_env_vertex_cap_below_vertex_count(self, capsys, monkeypatch, name):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "10000000,3")
        code, out, _ = run(capsys, "verify", "--check", name, "--n-max", "8")
        assert code == 3
        assert out == f"{name}: INCONCLUSIVE: 4 vertices exceed the vertex cap of 3\n"

    def test_env_cap_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("INVOLUTION_LAB_CAP", "lots")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--check", "fibersum", "--n-max", "4")
        assert exc.value.code == 2


class TestCor31Mismatch:
    """The correspondence check names the first graph found on one side only."""

    N = 4
    EMPTY = ConstrainedGraph(2, ())  # the graph of the class {1, 2; -}

    def test_class_missing_from_the_class_set(self, monkeypatch):
        # Every cycle multiset of the class {1, 2; -} is classed as the
        # doubled-pair class, so no class maps to the empty graph.
        real = enumeration._class_from_counts
        lost = RefinedClass((1, 2), ())

        def corrupted(counts, n, p):
            cls = real(counts, n, p)
            return RefinedClass((), (((1, 2), 2),)) if cls == lost else cls

        monkeypatch.setattr(enumeration, "_class_from_counts", corrupted)
        passed, detail = checks.CHECKS["cor31"]({"n_max": self.N})
        assert not passed
        assert detail == ("n=4: 0 classes map to graph {'vertices': 2, 'edges': []}, "
                          "the enumeration gives it 1 times")

    def test_graph_missing_from_the_enumeration(self, monkeypatch):
        real = enumeration._multigraphs_by_n

        def corrupted(n_max, vertex_cap):
            for n, graphs in real(n_max, vertex_cap):
                yield n, [g for g in graphs if n != self.N or g != self.EMPTY]

        monkeypatch.setattr(enumeration, "_multigraphs_by_n", corrupted)
        passed, detail = checks.CHECKS["cor31"]({"n_max": self.N})
        assert not passed
        assert detail == ("n=4: 1 classes map to graph {'vertices': 2, 'edges': []}, "
                          "the enumeration gives it 0 times")

    def test_pass_text_unchanged(self):
        assert checks.CHECKS["cor31"]({"n_max": self.N}) == (
            True, "graph correspondence verified for n<=4")

    def test_each_class_is_validated_once(self, monkeypatch):
        real = enumeration._validate_refined_class
        seen = []
        monkeypatch.setattr(enumeration, "_validate_refined_class",
                            lambda cls, p, n: seen.append((cls, n)) or real(cls, p, n))
        assert checks.CHECKS["cor31"]({"n_max": self.N})[0]
        classes = [(cls, n) for n, tally in enumeration._class_tallies(self.N, 2, 10**4) for cls in tally]
        assert sorted(seen) == sorted(classes)

    @pytest.mark.parametrize("name, calls", [("cor31", 1938), ("weights", 1292)])
    def test_graph_validations_at_n_max_10(self, monkeypatch, name, calls):
        # A work count: every validation is the degree read that the caller
        # needs anyway.  cor31 validates each of the 646 graphs in
        # class_graph, graph_class and fiber_size; weights in class_graph
        # and graph_signature.
        real = enumeration._validate_graph
        seen = []
        monkeypatch.setattr(enumeration, "_validate_graph",
                            lambda g, n: seen.append((g, n)) or real(g, n))
        assert checks.CHECKS[name]({"n_max": 10})[0]
        assert len(seen) == calls
        assert len(set(seen)) == 646


class TestRedBranches:
    """A planted fault reaches each red branch that no honest run takes, and
    the check's first message names the cell."""

    EMPTY = ConstrainedGraph(2, ())  # the graph of the class {1, 2; -} at n = 4

    def test_cor31_graph_round_trip(self, monkeypatch):
        real = enumeration.graph_class
        monkeypatch.setattr(enumeration, "graph_class", lambda g, n: RefinedClass((), ())
                            if (g, n) == (self.EMPTY, 4) else real(g, n))
        assert checks.CHECKS["cor31"]({"n_max": 4}) == (
            False, "n=4: graph round-trip broke on {'bag': [1, 2], 'cycles': []}")

    def test_cor31_fiber_size(self, monkeypatch):
        real = enumeration.fiber_size
        monkeypatch.setattr(enumeration, "fiber_size",
                            lambda g, n: real(g, n) + ((g, n) == (self.EMPTY, 4)))
        assert checks.CHECKS["cor31"]({"n_max": 4}) == (
            False, "n=4, graph {'vertices': 2, 'edges': []}: fiber size 5 != class size 4")

    def test_thm41_non_integral_coefficient(self, monkeypatch):
        # Both routes gain 1/2 at n = 5, so they agree and only integrality fails.
        half = BivariatePoly.constant(Fraction(1, 2))
        for name in ("involution_polys", "involution_polys_via_graphs"):
            real = getattr(sequences, name)
            monkeypatch.setattr(sequences, name, lambda real=real: (
                poly + half if n == 5 else poly for n, poly in enumerate(real())))
        assert checks.CHECKS["thm41"]({}) == (
            False, "n=5: graph route left a non-integer coefficient")

    def test_lemma51_bound(self, monkeypatch):
        real = valuations.binomial_shift_bound_holds
        monkeypatch.setattr(valuations, "binomial_shift_bound_holds",
                            lambda k, i, e: (k, i) != (6, 4) and real(k, i, e))
        assert checks.CHECKS["lemma51"]({}) == (False, "bound fails at k=6, i=4")

    def test_lemma64_congruence(self, monkeypatch):
        monkeypatch.setattr(periodicity, "odd_product_congruence", lambda s: s != 9)
        assert checks.CHECKS["lemma64"]({}) == (False, "odd product congruence fails at s=9")

    def test_an_odd_factor_fault_turns_lemma65_and_thm66_red(self, monkeypatch):
        # beta(20) mod 2**s plus two: still odd, but no longer 2**(s+1)-periodic.
        real = periodicity.odd_factor_residues

        def planted(s, count):
            values = real(s, count)
            if count > 20:
                values[20] = (values[20] + 2) % (1 << s)
            return values

        monkeypatch.setattr(periodicity, "odd_factor_residues", planted)
        assert checks.CHECKS["lemma65"]({}) == (
            False, "odd factor shift congruence fails at s=3")
        assert checks.CHECKS["thm66"]({}) == (
            False, "s=3: 16 is not a period of the values mod 8 from index 0")

    def test_a_thm66_fault_names_its_s(self, monkeypatch):
        # beta(20) mod 2**5 plus two, at s = 5 only: s = 3 and 4 stay green,
        # and the red detail names s = 5.
        real = periodicity.odd_factor_residues

        def planted(s, count):
            values = real(s, count)
            if s == 5:
                values[20] = (values[20] + 2) % (1 << s)
            return values

        monkeypatch.setattr(periodicity, "odd_factor_residues", planted)
        passed, detail = checks.CHECKS["thm66"]({})
        assert not passed
        assert detail.startswith("s=5: "), detail

    def test_coeffs_missing_term(self, monkeypatch):
        real = sequences.involution_polys
        monkeypatch.setattr(sequences, "involution_polys", lambda: (
            poly - BivariatePoly.monomial(6, 0) if n == 6 else poly
            for n, poly in enumerate(real())))
        assert checks.CHECKS["coeffs"]({}) == (False, "n=6: missing terms [(6, 0)]")


def test_residues_past_a_machine_word_exit_3(capsys):
    # 2**64 + 1 residues fit no array typecode; the state cap lets the scan start.
    code, out, err = run(capsys, "period", "--t-mod", str(2**64 + 1), "--window", str(2**64 + 2))
    assert (code, out) == (3, "")
    assert err == ("involution-lab: residues mod 18446744073709551617 do not fit in a "
                   "machine word\n")


def test_t_mod_ten_million_is_refused_fast():
    # 10**7 = 2**7 * 5**7: the reduced scan finds its cycle of 78125 states,
    # and the state cycle, lcm(10**7, 78125) = 10**7 states past the first
    # repeat, is over the default cap of 10**7.  Stepping the full state
    # took 1.2 s and 52 MB to say so.
    run = fresh_run(*CLI, "period", "--t-mod", "10000000")
    assert (run.code, run.sha256) == (3, hashlib.sha256(b"").hexdigest())
    assert run.stderr == (b"involution-lab: no state repetition within 10000000 steps "
                          b"for modulus 10000000\n")
    assert run.seconds < 1
    assert run.peak_kb < 30 * 1024


def test_t_mod_a_power_of_two_stays_small():
    # 2**23 draws 130 residues; its full state's window of
    # 16,777,308 values is reported, not held.  Copying that window took
    # 78 MB.
    run = fresh_run(*CLI, "period", "--t-mod", "8388608", keep_stdout=True)
    assert run.code == 0
    assert run.stdout == b"modulus,preperiod,period,window_checked\n8388608,90,1,16777308\n"
    assert run.seconds < 1
    assert run.peak_kb < 30 * 1024


def _readme_default(default) -> str:
    if callable(default):  # lemma21's --n-max default depends on --p
        by_p = "; ".join(f"p={p}: {default({'p': p})}" for p in (2, 3, 5))
        larger = [default({"p": p}) for p in (7, 11, 13)]
        return f"{by_p}; larger p: {'p' if larger == [7, 11, 13] else larger[0]}"
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


@pytest.mark.parametrize("argv", ["table --k-max 2000000"])
def test_costly_window_is_refused_at_once(capsys, argv):
    # Under the step cap, but the columns would hold 32 million cells, over
    # a gigabyte of lists: the cell cap refuses before any stepping.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "32000016 cells asked for, more than the cap of 3000000 cells" in err


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


@pytest.mark.parametrize("field", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_csv_field_that_needs_quoting_raises(capsys, field):
    # Fields are written unquoted, so one that would need quotes is refused
    # before its line is written.
    args = cli.build_parser().parse_args(["seq", "--kind", "t", "--to", "1"])
    rows = [{"n": "0", "value": "1"}, {"n": "1", "value": field}]
    with pytest.raises(ValueError, match="needs quoting"):
        cli._emit_rows(args, ["n", "value"], rows)
    assert capsys.readouterr().out == "n,value\n0,1\n"


def test_cli_does_not_import_fractions():
    # fractions pulls in decimal, and dataclasses pulls in inspect; a fresh
    # interpreter shows what a CLI run loads, since other tests in this
    # process have imported them all.  Start-up and the CSV commands load
    # none of them, JSON output (rho) loads json, seq loads decimal, and csv
    # is never loaded.  The script prints with repr, so it imports no json.
    script = (
        "import contextlib, io, sys\n"
        "from involution_lab import cli\n"
        "cli.build_parser()\n"
        "watched = {'fractions', 'decimal', 'csv', 'dataclasses', 'inspect', 'json'}\n"
        "loaded = [sorted(watched & set(sys.modules))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['period', '--beta-mod-2s', '8'], ['table', '--k-max', '5'],\n"
        "                 ['rho', '--k-max', '100'], ['seq', '--kind', 'beta', '--to', '9']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "        loaded.append(sorted(watched & set(sys.modules)))\n"
        "print(repr(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [[], [], [], ["json"], ["decimal", "json"]]

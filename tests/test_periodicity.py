"""Period detection tests: the certified reports against hand-checked
periods, against the paper's laws, and against an independent
table-of-states and index-scan reference, witnesses included; and the
congruence lemmas behind the odd-factor period."""

import tracemalloc
from array import array
from itertools import combinations, count, islice, product
from math import gcd, prod
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involution_lab import checks, periodicity
from involution_lab.algebra import odd_part, val2
from involution_lab.errors import InconclusiveError, ResourceLimitError, VerificationError
from involution_lab.periodicity import (
    _divisors,
    _scan,
    involution_mod_period,
    joined_period,
    mod_period_law,
    odd_factor_period,
    odd_factor_shift_congruence,
    odd_product_congruence,
    prime_power_parts,
)
from involution_lab.sequences import involution_count, removal_residues
from involution_lab.twoadic import STEP_CAP, odd_factor_residues


def reference_report(values, modulus, lam, mu):
    """Reference minimisation by index-by-index scans: the smallest divisor
    of ``mu`` that holds across one stretch from ``lam`` is the period, the
    preperiod shrinks from ``lam``, and each proper divisor of the period
    gets its first counterexample.  Returns the report's JSON object."""
    w = len(values)
    d = next(d for d in range(1, mu + 1)
             if mu % d == 0 and all(values[i] == values[i + d] for i in range(lam, lam + mu)))
    while lam > 0 and values[lam - 1] == values[lam - 1 + d]:
        lam -= 1
    rejected = [[dd, next(i for i in range(lam, w - dd) if values[i] != values[i + dd])]
                for dd in range(1, d) if d % dd == 0]
    return {"modulus": modulus, "preperiod": lam, "period": d, "window_checked": w,
            "witnesses": {"rejected_divisors": rejected,
                          "preperiod_index": lam - 1 if lam else None}}


def table_first_repeat(m, cap=float("inf")):
    """Reference state walk: a dict of every state until the first repeat.
    Returns the values up to it and the indices ``first`` and ``again`` of
    the repeated state."""
    values, seen, n = [1 % m, 1 % m], {}, 1
    while (n % m, values[-2], values[-1]) not in seen:
        seen[n % m, values[-2], values[-1]] = n
        if len(seen) > cap:
            raise InconclusiveError(f"no state repetition within {cap} steps for modulus {m}")
        values.append((values[-1] + n * values[-2]) % m)
        n += 1
    return values, seen[n % m, values[-2], values[-1]], n


def table_mod_period(m, cap=float("inf")):
    """Reference state detector: ``table_first_repeat``, then
    ``reference_report`` on a window of two state cycles past it.  Returns
    the report's JSON object and the index ``again`` of the first repeat."""
    values, first, again = table_first_repeat(m, cap)
    n = again
    mu, lam = again - first, first - 1
    while len(values) < lam + 2 * mu + 2:
        values.append((values[-1] + n * values[-2]) % m)
        n += 1
    return reference_report(values, m, lam, mu), again


def count_draws(monkeypatch):
    """Route the scan's residue stream through a counter, one per scan, and
    return the list of them: next(counter) is then the number of residues
    that scan drew.  The draws are counted in C: zip pulls one number from
    its counter for each residue."""
    counters = []

    def counted(m):
        counters.append(count())
        return map(itemgetter(1), zip(counters[-1], removal_residues(m)))

    monkeypatch.setattr(periodicity, "removal_residues", counted)
    return counters


# The moduli of the benchmark's tmod bands: the first eight primes above
# 10**6, and 2**k * ell with ell the least prime at or above 10**6 / 2**k.
BAND_MODULI = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121,
               1000028, 1000024, 1000016, 1000096, 1000256, 1000576, 1000192, 1000448)

# Every m = 2**k * ell <= 5000 with k >= 3, in ten slices of 500: the scan
# steps about ell residues there, the table about m.
HIGH_TWO_POWER_SLICES = [range(low + 8, low + 501, 8) for low in range(0, 5000, 500)]


class TestModularScan:
    def test_matches_exact_reduction(self):
        for m in (2, 3, 16, 99, 512):
            prefix = list(islice(removal_residues(m), 10**4 + 1))
            for n in (0, 1, 2, 500, 2000, 10**4):
                assert prefix[n] == involution_count(n) % m

    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=0, max_value=600))
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_reduction_sampled(self, m, n):
        assert next(islice(removal_residues(m), n, None)) == involution_count(n) % m

    def test_state_detector_reports(self):
        cases = {2: (2, 1), 3: (0, 3), 4: (6, 1), 8: (10, 1), 12: (6, 3), 15: (0, 15)}
        for m, expected in cases.items():
            report = involution_mod_period(m)
            assert (report.preperiod, report.period) == expected

    def test_state_cap_inconclusive(self):
        with pytest.raises(InconclusiveError):
            involution_mod_period(12, state_cap=5)


class TestCycleDetector:
    def test_matches_state_table(self):
        for m in range(1, 301):
            assert involution_mod_period(m).to_json_obj() == table_mod_period(m)[0], m

    @pytest.mark.parametrize("moduli", HIGH_TWO_POWER_SLICES, ids=lambda r: f"m{r.start}")
    def test_matches_state_table_at_high_powers_of_two(self, moduli):
        for m in moduli:
            assert involution_mod_period(m).to_json_obj() == table_mod_period(m)[0], m

    def test_cap_boundary(self):
        # The cap counts the distinct states before the first repeat, and
        # again - 1 of them come first, so every smaller cap is inconclusive.
        for m in range(1, 61):
            doc, again = table_mod_period(m)
            assert involution_mod_period(m, state_cap=again - 1).to_json_obj() == doc
            with pytest.raises(InconclusiveError, match="no state repetition"):
                table_mod_period(m, cap=again - 2)
            for cap in range(again - 1):
                with pytest.raises(InconclusiveError, match="no state repetition"):
                    involution_mod_period(m, state_cap=cap)

    @pytest.mark.parametrize("moduli", HIGH_TWO_POWER_SLICES, ids=lambda r: f"m{r.start}")
    def test_cap_boundary_at_high_powers_of_two(self, moduli):
        # Every cap below m is refused before a step (test_cap_boundary);
        # from m - 1 on, each cap below again - 1 is refused too.
        for m in moduli:
            _, _, again = table_first_repeat(m)
            assert involution_mod_period(m, state_cap=again - 1) == involution_mod_period(m)
            for cap in range(m - 1, again - 1):
                with pytest.raises(InconclusiveError, match="no state repetition"):
                    involution_mod_period(m, state_cap=cap)

    def test_a_cap_of_m_cubed_decides_as_the_default(self):
        # The state takes at most m**3 values, so its first repeat comes
        # within m**3 steps and a cap of m**3 + 4m gives the same report.
        for m in range(1, 1001):
            assert involution_mod_period(m) == involution_mod_period(
                m, state_cap=min(m**3 + 4 * m, STEP_CAP)), m

    def test_modulus_above_cap_raises_at_once(self):
        # The state cycle holds at least m states, so nothing is stepped,
        # even for a modulus no machine word holds.
        for m in (20_000_000, 2**70):
            with pytest.raises(InconclusiveError, match="within 10000000 steps"):
                involution_mod_period(m)

    def test_divisors_ascending(self):
        for d in list(range(1, 400)) + [1024, 3 * 3 * 5 * 5 * 7, 999_983, 1_000_000]:
            assert _divisors(d) == [x for x in range(1, d + 1) if d % x == 0]

    def test_a_read_past_the_held_values_wraps(self):
        # Against the values read past their end one wrap back, for every
        # held run of up to five bits, whether it repeats or not, and every
        # range that starts at least a wrap before their end or stops by it.
        for size in range(1, 6):
            for held in product((0, 1), repeat=size):
                for wrap in range(1, size + 1):
                    v = list(held)
                    while len(v) < size + 4 * wrap:
                        v.append(v[-wrap])
                    for d, start, stop in product(range(1, wrap + 1), range(size),
                                                  range(size + 3 * wrap)):
                        if start > size - wrap and stop > size:
                            continue
                        want = next((i for i in range(start, stop) if v[i] != v[i + d]), None)
                        assert periodicity._first_mismatch(held, d, start, stop, wrap) == want

    def test_peak_memory_stays_small(self):
        # Traced allocations only, so nothing earlier in this process counts.
        # A table of every state peaked at about 25 MiB for m = 100003, and
        # the full state's window of 200,008 words at about 0.8 MiB; the
        # m + 2 stepped residues are what is held.
        tracemalloc.start()
        try:
            report = involution_mod_period(100_003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.preperiod, report.period) == (0, 100_003)
        assert peak <= (100_003 + 2) * array("I").itemsize + 256 * 2**10

    def test_peak_memory_of_an_even_modulus_is_its_draws(self, monkeypatch):
        # 100004 = 4 * 25001: about 25,000 residues are stepped and held; the
        # 200,000-word window is not.
        counters = count_draws(monkeypatch)
        tracemalloc.start()
        try:
            report = involution_mod_period(100_004)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.preperiod, report.period) == (6, 25_001)
        assert peak <= next(counters[-1]) * array("I").itemsize + 256 * 2**10

    def test_steps_one_cycle_past_the_first_checkpoint(self, monkeypatch):
        # Only the residues up to the hit are drawn, and nothing past them is
        # certified from a copy.  Stepping two whole cycles drew 2m + 2 at
        # m = 100003.
        counters = count_draws(monkeypatch)
        involution_mod_period(100_003)
        assert next(counters[-1]) == 100_003 + 2
        for m in range(1, 301):
            _, first, again = table_first_repeat(m)
            involution_mod_period(m)
            assert next(counters[-1]) <= 2 * first + (again - first) + 1, m

    @pytest.mark.parametrize("moduli", [
        *(range(low + 1, low + 501) for low in range(0, 3000, 500)),
        *((m,) for m in BAND_MODULI[:8]), BAND_MODULI[8:],
    ], ids=lambda moduli: f"m{moduli[0]}")
    def test_draws_about_the_odd_part_of_m(self, monkeypatch, moduli):
        # The reduced scan's cycle is about the odd part ell of m, so it draws
        # at most the preperiod twice plus two of those cycles; the scan of
        # the full state drew about m + first.
        counters = count_draws(monkeypatch)
        for m in moduli:
            report = involution_mod_period(m)
            bound = 2 * (report.preperiod + 1) + 2 * (m >> val2(m)) + 16
            assert next(counters[-1]) <= bound, m

    def test_certified_window_is_the_stepped_one(self, monkeypatch):
        # _certify gets each prime-power part's stepped residues, nothing
        # copied: at least first + c' + 1 of them (lam_bound + multiple + 2),
        # q + 2 for an odd part q, while window_checked stays the full state's
        # first + 2C + 1 mod m.
        real = periodicity._certify
        held = []

        def spied(values, modulus, lam_bound, multiple, window):
            held.append((modulus, values.tolist(), lam_bound + multiple + 2))
            return real(values, modulus, lam_bound, multiple, window)

        monkeypatch.setattr(periodicity, "_certify", spied)
        for m in range(1, 301):
            held.clear()
            report = involution_mod_period(m)
            assert [q for q, _, _ in held] == list(prime_power_parts(m)), m
            for q, values, least in held:
                assert values == list(islice(removal_residues(q), len(values))), (m, q)
                assert len(values) >= least, (m, q)
                assert q % 2 == 0 or len(values) == q + 2, (m, q)
            assert report.window_checked == table_mod_period(m)[0]["window_checked"], m


def scan_outcome(call):
    """The report's JSON object, or the refusal text."""
    try:
        return call().to_json_obj()
    except InconclusiveError as exc:
        return str(exc)


class TestComposition:
    def test_prime_power_parts(self):
        assert prime_power_parts(1) == (1,)
        assert prime_power_parts(999_999) == (27, 7, 11, 13, 37)
        assert prime_power_parts(1_000_016) == (16, 62_501)
        for m in range(1, 2001):
            parts = prime_power_parts(m)
            assert prod(parts) == m and all(gcd(a, b) == 1 for a, b in combinations(parts, 2))
            assert all(len(prime_power_parts(q)) == 1 for q in parts), m
        with pytest.raises(ValueError, match="modulus must be positive"):
            prime_power_parts(0)

    @pytest.mark.parametrize("moduli", [range(low + 1, low + 501) for low in range(0, 3000, 500)],
                             ids=lambda moduli: f"m{moduli[0]}")
    def test_composed_report_is_the_scan_of_m(self, moduli):
        for m in moduli:
            assert involution_mod_period(m).to_json_obj() == _scan(m, STEP_CAP)[0].to_json_obj(), m

    @pytest.mark.parametrize("m", BAND_MODULI)
    def test_composed_report_is_the_scan_of_a_band_modulus(self, m):
        # The odd band moduli are primes, one part each, and take the scan's
        # path; each even one joins 2**k and its prime ell.
        assert involution_mod_period(m).to_json_obj() == _scan(m, STEP_CAP)[0].to_json_obj()

    @pytest.mark.parametrize("moduli", [range(1, 50), range(50, 65), range(65, 80)],
                             ids=lambda moduli: f"m{moduli[0]}")
    def test_every_cap_refuses_as_the_scan_of_m(self, moduli):
        # A cap below m is refused before anything is scanned, as before.
        for m in (m for m in moduli if len(prime_power_parts(m)) > 1):
            for cap in range(m, 3 * m + 41):
                assert scan_outcome(lambda: involution_mod_period(m, state_cap=cap)) == \
                    scan_outcome(lambda: _scan(m, cap)[0]), (m, cap)
            for cap in range(m):
                assert scan_outcome(lambda: involution_mod_period(m, state_cap=cap)) == (
                    f"no state repetition within {cap} steps for modulus {m}"), (m, cap)

    def test_draws_only_the_parts_residues(self, monkeypatch):
        # 999999 = 27 * 7 * 11 * 13 * 37: each odd part q draws q + 2
        # residues, 105 in all; the scan of 999999 drew about 10**6.
        counters = count_draws(monkeypatch)
        report = involution_mod_period(999_999)
        assert [next(counter) for counter in counters] == [29, 9, 13, 15, 39]
        assert (report.preperiod, report.period) == (0, 999_999)

    def test_a_row_scans_each_distinct_part_once(self, monkeypatch):
        # Every even m <= 96 is read from its prime-power parts, and each
        # part is scanned once for the row; the last stream, mod 96, is the
        # residue route check.
        moduli = []
        real = periodicity.removal_residues

        def spied(m):
            moduli.append(m)
            return real(m)

        monkeypatch.setattr(periodicity, "removal_residues", spied)
        assert checks.CHECKS["thm63"]({"m_max": 96})[0]
        parts = {q for m in range(2, 97, 2) for q in prime_power_parts(m)}
        assert sorted(moduli[:-1]) == sorted(parts)
        assert moduli[-1] == 96


class TestModPeriodLaw:
    def test_examples(self):
        cases = {1: (0, 1), 15: (0, 15), 2: (2, 1), 12: (6, 3), 8: (10, 1), 96: (18, 3)}
        assert {m: mod_period_law(m) for m in cases} == cases

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mod_period_law(0)


def law_holds(m):
    report = involution_mod_period(m)
    return (report.preperiod, report.period) == mod_period_law(m)


class TestOddModuli:
    def test_examples(self):
        assert law_holds(3)
        assert law_holds(1)
        assert law_holds(15)

    def test_smallest_period_is_m_not_a_divisor(self):
        # m = 9: the period is 9 itself, not 3.
        report = involution_mod_period(9)
        assert report.period == 9
        assert dict(report.rejected_divisors).keys() == {1, 3}

    def test_range(self):
        for m in range(1, 60, 2):
            assert law_holds(m)


class TestEvenModuli:
    def test_examples(self):
        for m, expected in {2: (2, 1), 12: (6, 3), 8: (10, 1)}.items():
            report = involution_mod_period(m)
            assert (report.preperiod, report.period) == expected == mod_period_law(m)

    def test_range(self):
        for m in range(2, 60, 2):
            assert law_holds(m)


class TestOddProductCongruence:
    def test_examples(self):
        assert odd_product_congruence(3)  # 105 = 13*8 + 1
        assert odd_product_congruence(4)  # 2027025 mod 16 == 1
        assert odd_product_congruence(6)

    def test_below_three_rejected(self):
        with pytest.raises(ValueError):
            odd_product_congruence(2)

    def test_over_step_cap_refused_before_multiplying(self):
        # 2**24 factors at s = 25 would take seconds; the refusal is at once.
        with pytest.raises(ResourceLimitError, match="cap of 10000000 steps"):
            odd_product_congruence(25)


class TestOddFactorCongruence:
    def test_examples(self):
        assert odd_factor_shift_congruence(3, 64)
        assert odd_part(involution_count(16)) % 8 == 1
        assert odd_factor_shift_congruence(4, 128)

    def test_below_three_rejected(self):
        with pytest.raises(ValueError):
            odd_factor_shift_congruence(2, 10)

    def test_negative_n_max_rejected(self):
        # n_max = -1 would check no n and pass.
        with pytest.raises(ValueError, match="n_max"):
            odd_factor_shift_congruence(3, -1)


class TestOddFactorPeriod:
    @pytest.mark.parametrize("s,period", [(3, 16), (4, 32), (5, 64)])
    def test_reports(self, s, period):
        report = odd_factor_period(s)
        assert (report.preperiod, report.period) == (0, period)
        assert report.modulus == 1 << s
        assert sorted(dict(report.rejected_divisors)) == [1 << j for j in range(s + 1)]

    def test_witnesses_reverify(self):
        # The whole report, witnesses included, against the reference: odd
        # factors read from the exact counts, not the 2-adic engine, and
        # minimised from index 0 over the proven multiple 2**(max(s, 3) + 1).
        for s in range(1, 7):
            report = odd_factor_period(s)
            window = report.window_checked
            values = [odd_part(involution_count(n)) % (1 << s) for n in range(window)]
            multiple = 1 << (max(s, 3) + 1)
            assert window >= 2 * multiple
            assert report.to_json_obj() == reference_report(values, 1 << s, 0, multiple), s

    def test_agrees_with_window_detector(self):
        # The report against the reference scan run over the same 2-adic
        # engine residues the certifier reads, on its own window.
        for s in (1, 2, 3, 4):
            report = odd_factor_period(s)
            values = odd_factor_residues(s, report.window_checked)
            multiple = 1 << (max(s, 3) + 1)
            assert report.to_json_obj() == reference_report(values, 1 << s, 0, multiple), s

    def test_report_off_the_law_raises(self, monkeypatch):
        # Residues with period 8 instead of 16 must not pass as Theorem 6.6.
        monkeypatch.setattr(periodicity, "odd_factor_residues",
                            lambda s, count: array("B", (n % 8 for n in range(count))))
        with pytest.raises(VerificationError, match="expected pure period 16"):
            odd_factor_period(3)

    def test_half_period_fails_at_index_two(self):
        # If 2**s were a period the odd factors at 2 and 2**s + 2 would
        # agree; they never do for s in 3..6.
        for s in (3, 4, 5, 6):
            values = odd_factor_residues(s, (1 << s) + 3)
            assert values[(1 << s) + 2] != values[2]

    def test_small_s_rejected(self):
        with pytest.raises(ValueError):
            odd_factor_period(0)

    def test_contradicting_window_surfaces(self, monkeypatch):
        # Residues that do not repeat every 16: no divisor of the proven
        # multiple holds, and the certifier refuses to report.
        monkeypatch.setattr(periodicity, "odd_factor_residues",
                            lambda s, count: array("B", (n % 5 for n in range(count))))
        with pytest.raises(VerificationError,
                           match="16 is not a period of the values mod 8 from index 0"):
            odd_factor_period(3)


class TestJsonShape:
    def test_report_json(self):
        report = involution_mod_period(12)
        doc = report.to_json_obj()
        assert doc["modulus"] == 12
        assert doc["preperiod"] == 6
        assert doc["period"] == 3
        assert doc["witnesses"]["preperiod_index"] == 5
        assert doc["witnesses"]["rejected_divisors"] == [[1, 7]]

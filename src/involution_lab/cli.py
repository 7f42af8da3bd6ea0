"""Command-line front end.

Subcommands: ``seq`` (sequence prefixes), ``table`` (the four valuation
columns with predictions), ``verify`` (named identity batches), ``period``
(modular period reports), ``rho`` (the 2-adic digit fit).  Output is CSV by
default or a single JSON document with ``--format json``; identical
invocations produce identical bytes.

Exit codes: 0 all good, 1 a verification failed, an exact result was not
exact or the reader closed stdout early, 2 usage error, 3 a scan was
inconclusive or an enumeration cap was exceeded.

The environment variable ``INVOLUTION_LAB_CAP`` overrides the enumeration
caps: a single integer sets the permutation cap, a pair ``ROOTS,VERTICES``
sets both.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain, count, islice
from typing import Iterable, Iterator

from . import checks, conjecture, periodicity, sequences, twoadic, valuations
from .algebra import is_prime
from .errors import ExactnessError, InconclusiveError, ResourceLimitError, VerificationError

__all__ = ["main", "build_parser"]

def _column(kind: str, one) -> Iterator:
    # t_even, t_odd: the kind's COLUMNS number from the t and s streams.
    t, s = (sequences.stepped(sequences.removal_step(one, one, y), 2) for y in (one, -one))
    return map(partial(twoadic.column_number, kind), count(), t, s)


# seq --kind: each kind's values from n = 0 on, stepped in the ring of ``one``
# over the window its recurrence reads (p back, or 8 for graphs); only tau reads p.
_SEQ_VALUES = {
    "t": lambda one, p: sequences.stepped(sequences.removal_step(one, one, one), 2),
    "tau": lambda one, p: sequences.stepped(sequences.removal_step(one, one, one, p), p),
    "beta": lambda one, p: sequences.stepped(
        lambda n, b: sequences.odd_factor_step(n - 1, b[n - 2], b[n - 1]) if n > 1 else one, 2),
    "g": lambda one, p: sequences.stepped(sequences.graph_step(one, one, one, one), 8),
    "g_alt": lambda one, p: sequences.stepped(sequences.graph_step(one, one, -one, 0), 8),
    "t_signed": lambda one, p: sequences.stepped(sequences.removal_step(one, one, -one), 2),
    "t_even": lambda one, p: _column("t_even", one),
    "t_odd": lambda one, p: _column("t_odd", one),
}
_VERIFY_FLAGS = ("p", "n_max", "k_max", "s_max", "m_max")
# Largest --p accepted: primality is tested by trial division.
_P_MAX = 10**6


def _usage_error(message: str) -> "SystemExit":
    print(f"involution-lab: {message}", file=sys.stderr)
    return SystemExit(2)


def _env_caps() -> dict:
    raw = os.environ.get("INVOLUTION_LAB_CAP")
    if not raw:
        return {}
    parts = raw.split(",")
    try:
        caps = {"root_cap": int(parts[0])}
        if len(parts) > 1:
            caps["vertex_cap"] = int(parts[1])
        if len(parts) > 2:
            raise ValueError
    except ValueError:
        raise _usage_error(
            f"bad INVOLUTION_LAB_CAP value {raw!r} (want N or N,V)"
        )
    if min(caps.values()) < 1:
        raise _usage_error(f"INVOLUTION_LAB_CAP caps must be positive, got {raw!r}")
    return caps


def _check_prime(command: str, p: int | None) -> None:
    if p is not None and not (p <= _P_MAX and is_prime(p)):
        raise _usage_error(f"{command}: --p must be a prime at most {_P_MAX}, got {p}")


@contextmanager
def _out_stream(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
        return
    # A failing open, write or close (a full disk) is a usage error.
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise _usage_error(f"cannot write --output {path}: {exc.strerror or exc}") from None


def _emit_rows(args, fieldnames: list[str], rows: Iterable[dict], doc: dict | None = None) -> None:
    """The one output writer: CSV rows written as they come, or one JSON
    document, ``doc`` when given and {"rows": [...]} otherwise."""
    with _out_stream(args.output) as fh:
        if args.format == "csv":
            for fields in chain([fieldnames], ([row[key] for key in fieldnames] for row in rows)):
                line = ",".join(fields)
                # Nothing is quoted: a field that would need quotes raises.
                if line.count(",") >= len(fields) or '"' in line or "\r" in line or "\n" in line:
                    raise ValueError(f"CSV field needs quoting: {line!r}")
                fh.write(line + "\n")
        else:
            import json  # only JSON output loads it
            json.dump({"rows": list(rows)} if doc is None else doc, fh, sort_keys=True)
            fh.write("\n")


def cmd_seq(args) -> int:
    if args.start < 0 or args.to < args.start:
        raise _usage_error(f"seq: bad range {args.start}..{args.to}")
    if args.kind != "tau" and args.p is not None:
        raise _usage_error("seq: --p only applies to --kind tau")
    _check_prime("seq", args.p)
    p = args.p if args.p is not None else 2
    import decimal  # only seq loads it
    # Stepped in the radix it prints.  Numbers stay below 2 n! < 10**(n digits(n) + 1), so none
    # rounds here and the traps make any rounding raise (at MAX_PREC, inexact is MemoryError).
    digits = min(args.to * len(str(args.to)) + 1, decimal.MAX_PREC)
    context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    try:
        with decimal.localcontext(context):
            # Rows are computed as they are written; an error stops the stream there.
            values = islice(_SEQ_VALUES[args.kind](decimal.Decimal(1), p), args.start, args.to + 1)
            rows = ({"n": str(n), "value": str(v)} for n, v in enumerate(values, args.start))
            _emit_rows(args, ["n", "value"], rows)
    except decimal.DecimalException as exc:
        raise ExactnessError(f"seq: a decimal step was not exact ({type(exc).__name__})") from None
    return 0


def cmd_table(args) -> int:
    if args.k_max < 0:
        raise _usage_error("table: --k-max must be nonnegative")
    # Every column is certified here, before the first byte is written.
    rows = valuations.table_rows(args.k_max)
    _emit_rows(args, valuations.table_fieldnames(), rows)
    return 0


def cmd_verify(args) -> int:
    _check_prime("verify", args.p)
    names = sorted(checks.CHECKS) if args.check == "all" else [args.check]
    given = {key: getattr(args, key) for key in _VERIFY_FLAGS if getattr(args, key) is not None}
    params = {**given, **_env_caps()}
    read: set[str] = set()
    for name in names:  # every range is checked before the first check runs
        try:
            read.update(checks.resolve(name, params))
        except checks.EmptyRangeError as exc:
            raise _usage_error(f"verify: {name}: {exc}") from None
    ignored = [checks.option(key) for key in given if key not in read]
    if ignored:
        raise _usage_error(f"verify: {args.check} does not read {', '.join(ignored)}")
    failed = False
    for name in names:
        try:
            ok, detail = checks.CHECKS[name](params)
        except (ResourceLimitError, InconclusiveError) as exc:
            print(f"{name}: INCONCLUSIVE: {exc}")
            return 3
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def cmd_period(args) -> int:
    if args.window is not None and args.window < 1:
        raise _usage_error("period: --window must be positive")
    if args.t_mod is not None:
        if args.t_mod < 1:
            raise _usage_error("period: modulus must be positive")
        cap = twoadic.STEP_CAP if args.window is None else args.window
        report = periodicity.involution_mod_period(args.t_mod, state_cap=cap)
        expected = periodicity.mod_period_law(args.t_mod)
    else:
        s = args.beta_mod_2s
        if s < 1:
            raise _usage_error("period: s must be positive")
        if args.window is not None:
            raise _usage_error("period: --window only applies to --t-mod")
        if args.expect_paper and s < 3:
            raise _usage_error(
                f"period: no closed-form expectation is asserted for s={s}; "
                "rerun without --expect-paper"
            )
        report = periodicity.odd_factor_period(s)
        # odd_factor_period raises unless the report is the law, so the
        # report it returns is the expectation.
        expected = (report.preperiod, report.period)
    if not args.expect_paper:
        expected = None
    doc = report.to_json_obj()
    row = {k: str(doc[k]) for k in ("modulus", "preperiod", "period", "window_checked")}
    matches = None
    if expected is not None:
        matches = (report.preperiod, report.period) == expected
        doc["expected"] = {"preperiod": expected[0], "period": expected[1]}
        doc["matches_expected"] = matches
        row["expected_preperiod"] = str(expected[0])
        row["expected_period"] = str(expected[1])
        row["matches_expected"] = str(matches).lower()
    _emit_rows(args, list(row), [row], doc)
    if expected is not None:
        print(f"period: {'PASS' if matches else 'FAIL'}", file=sys.stderr)
        return 0 if matches else 1
    return 0


def cmd_rho(args) -> int:
    if args.k_max < 1:
        raise _usage_error("rho: --k-max must be at least 1")
    if args.bits < 1:
        raise _usage_error("rho: --bits must be at least 1")
    fit = conjecture.fit_shift_digits(args.k_max, args.bits)
    _emit_rows(args, [], [], fit.to_json_obj())
    return 0 if fit.consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involution-lab",
        description="Exact involution counting, valuations, and periods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", "-o", default=None, help="path, or - for stdout")

    p_seq = sub.add_parser("seq", help="emit a sequence prefix as n,value rows")
    p_seq.add_argument("--kind", choices=_SEQ_VALUES, required=True)
    p_seq.add_argument("--from", dest="start", type=int, default=0)
    p_seq.add_argument("--to", type=int, required=True)
    p_seq.add_argument("--p", type=int, default=None, help="prime for --kind tau")
    add_common(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_table = sub.add_parser("table", help="emit the valuation table with predictions")
    p_table.add_argument("--k-max", type=int, default=10)
    add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run named verification batches")
    p_verify.add_argument(
        "--check",
        default="all",
        choices=sorted(checks.CHECKS) + ["all"],
    )
    for key in _VERIFY_FLAGS:
        p_verify.add_argument(checks.option(key), type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_period = sub.add_parser("period", help="report a modular period")
    which = p_period.add_mutually_exclusive_group(required=True)
    which.add_argument("--t-mod", type=int, default=None, metavar="M",
                       help="involution counts modulo M")
    which.add_argument("--beta-mod-2s", type=int, default=None, metavar="S",
                       help="odd factors modulo 2**S")
    p_period.add_argument(
        "--window", type=int, default=None,
        help="with --t-mod, the cap on distinct states scanned",
    )
    p_period.add_argument(
        "--expect-paper",
        action="store_true",
        help="check the report against the published closed-form expectation",
    )
    add_common(p_period)
    p_period.set_defaults(func=cmd_period)

    p_rho = sub.add_parser("rho", help="fit the 2-adic shift digits")
    p_rho.add_argument("--k-max", type=int, required=True)
    p_rho.add_argument("--bits", type=int, default=11)
    p_rho.add_argument("--output", "-o", default=None)
    p_rho.set_defaults(func=cmd_rho, format="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here at the latest
        return code
    except BrokenPipeError:
        # Stop quietly, with Python's own exit code for EPIPE; the flush at
        # interpreter exit then writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ResourceLimitError, InconclusiveError) as exc:
        print(f"involution-lab: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, ExactnessError) as exc:
        print(f"involution-lab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one involution-lab CLI job in this process, with tracing wrappers.

    PYTHONPATH=src python bench/tracer.py <cli args...>

Before ``cli.main`` runs, wrappers go around the package's public functions,
at every place they are bound: module attributes, by-name imports in other
modules, and module-level dispatch dicts such as ``checks.CHECKS``.

* Coarse calls (the command, each check, the enumeration oracles, the period
  scans, the digit fit) are spans, kept in memory.
* Per-element functions and the hot kernels (``val2``, polynomial product
  and evaluation) are timed in aggregate, without a span record.
* ``Dyadic`` construction and ``SequenceCache.get`` are only counted.

Self time is a call's duration minus the time of the wrapped calls inside
it.  The job's stdout is hashed instead of printed.  The process ends by
writing one JSON line to the real stdout: exit code, stdout digest and size,
spans, per-function aggregates and counters.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
import time
import traceback

from involution_lab import (
    algebra, checks, cli, conjecture, enumeration, periodicity, sequences, valuations,
)

# (module, function) pairs recorded as spans.
SPANS = {
    cli: ["main"],
    enumeration: [
        "pth_roots", "filtered_pth_roots", "multigraphs", "simple_graphs",
        "graph_count_bruteforce", "graph_weight_sum_bruteforce",
    ],
    periodicity: [
        "detect_period", "involution_mod_prefix", "involution_mod_period",
        "verify_odd_modulus", "verify_even_modulus", "odd_product_congruence",
        "odd_factor_mod_prefix", "odd_factor_shift_congruence", "odd_factor_period",
    ],
    conjecture: ["fit_shift_digits"],
    valuations: ["valuation_table"],
    sequences: ["involution_count_via_graphs", "involution_poly_via_graphs", "odd_factor_closed"],
}

# (module, function) pairs timed in aggregate only.
TIMED = {
    algebra: ["val2"],
    sequences: [
        "involution_count", "signed_involution_count", "involution_count_direct",
        "pth_root_count", "involution_poly", "graph_poly", "graph_count",
        "graph_count_signed", "odd_factor", "odd_factor_step",
    ],
    valuations: ["table_row", "even_involution_count", "odd_involution_count"],
    enumeration: [
        "refined_class", "class_size", "class_graph", "graph_class",
        "fiber_size", "involution_weight", "graph_weight",
    ],
    conjecture: ["even_count_val2"],
}


class Tracer:
    """Span and aggregate store for one job; everything stays in memory."""

    def __init__(self) -> None:
        self.frames: list[int] = []  # wrapped-child ns of each open call
        self.open_spans: list[int] = []
        self.spans: list[list] = []  # [name, parent span, start ns, end ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts = dict.fromkeys(
            ["dyadic_new", "cache_hit", "cache_extended", "roots_emitted",
             "graphs_emitted", "k_scanned", "states_stepped"], 0)
        self.max_index = {"t": -1, "signed": -1}

    def wrap(self, name: str, fn, *, span: bool = False, observe=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        frames, open_spans, spans = self.frames, self.open_spans, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                sid = len(spans)
                spans.append([name, open_spans[-1] if open_spans else None, 0, 0])
                open_spans.append(sid)
            frames.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = frames.pop()
                if frames:
                    frames[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if span:
                    open_spans.pop()
                    spans[sid][2:] = [start, start + elapsed]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self) -> dict:
        counts, max_index = self.counts, self.max_index

        def index(key):
            def observe(args, result):
                if args and args[0] > max_index[key]:
                    max_index[key] = args[0]
            return observe

        def add(key, size):
            def observe(args, result):
                counts[key] += size(result)
            return observe

        return {
            "sequences.involution_count": index("t"),
            "sequences.signed_involution_count": index("signed"),
            "enumeration.pth_roots": add("roots_emitted", len),
            "enumeration.multigraphs": add("graphs_emitted", len),
            "conjecture.fit_shift_digits": add("k_scanned", lambda r: r.k_max + 1),
            "periodicity.involution_mod_period": add("states_stepped", lambda r: r.window_checked),
        }

    def install(self) -> dict:
        """Wrap everything; return the original functions by traced name."""
        observers = self._observers()
        originals: dict[str, object] = {}
        replace: dict[int, object] = {}
        for table, span in ((SPANS, True), (TIMED, False)):
            for module, names in table.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is None:  # renamed or removed by a later change
                        continue
                    name = f"{short}.{attr}"
                    originals[name] = fn
                    replace[id(fn)] = self.wrap(name, fn, span=span, observe=observers.get(name))
        for check, fn in checks.CHECKS.items():
            originals[f"checks.{check}"] = fn
            replace[id(fn)] = self.wrap(f"checks.{check}", fn, span=True)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "involution_lab" and not mod_name.startswith("involution_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]
        self._install_class_hooks()
        return originals

    def _install_class_hooks(self) -> None:
        counts = self.counts
        poly = getattr(algebra, "BivariatePoly", None)
        if poly is not None:
            mul = self.wrap("algebra.poly_mul", poly.__mul__)
            poly.__mul__ = poly.__rmul__ = mul
            poly.evaluate = self.wrap("algebra.poly_evaluate", poly.evaluate)
        dyadic = getattr(algebra, "Dyadic", None)
        if dyadic is not None:
            init = dyadic.__init__

            def counted_init(self, *args, **kwargs):
                counts["dyadic_new"] += 1
                init(self, *args, **kwargs)

            dyadic.__init__ = counted_init
        cache_cls = getattr(sequences, "SequenceCache", None)
        if cache_cls is not None:
            get = cache_cls.get
            highest: dict[int, int] = {}

            def counted_get(self, n):
                # An append-only cache extends exactly when asked past the
                # highest index it was asked for before.
                if n > highest.get(id(self), -1):
                    highest[id(self)] = n
                    counts["cache_extended"] += 1
                else:
                    counts["cache_hit"] += 1
                return get(self, n)

            cache_cls.get = counted_get


class _HashSink(io.RawIOBase):
    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        self.size += len(data)
        return len(data)


def _cache_bits(originals: dict, max_index: dict) -> int:
    bits = 0
    for key, name in (("t", "sequences.involution_count"), ("signed", "sequences.signed_involution_count")):
        fn = originals.get(name)
        if fn is not None:
            bits += sum(fn(n).bit_length() for n in range(max_index[key] + 1))
    return bits


def run(argv: list[str]) -> dict:
    tracer = Tracer()
    originals = tracer.install()
    sink = _HashSink()
    real_stdout = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        sys.stdout = real_stdout
    counts = dict(tracer.counts)  # before _cache_bits, which reads the caches again
    return {
        "exit": code,
        "sha256": sink.digest.hexdigest(),
        "stdout_bytes": sink.size,
        "stats": tracer.stats,
        "counts": counts,
        "cache_bits": _cache_bits(originals, tracer.max_index),
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1:])))

"""Span tracing for the benchmark's traced runs.

`Tracer.install()` replaces public functions and methods of mhslab's
modules with wrappers that record spans (name, start, end, parent) and
counters in memory; `uninstall()` puts the originals back.  Only traced
runs call it, after set-up.  A function imported by name into another
module (for example `is_prime` inside `mhs` and `congruences`) is
replaced there too.  Spans recorded inside forked pool workers die with
the workers, so a parallel scan is traced on the parent side only.

Metric names ending in `_s` are inclusive times: the sum of the durations
of the outermost spans of that name.  Names ending in `_self_s` are
exclusive: each span's duration minus the part its direct child spans
cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import mhslab
import mhslab.bernoulli as bernoulli
import mhslab.compositions as compositions
import mhslab.congruences as congruences
import mhslab.exactnum as exactnum
import mhslab.identities as identities
import mhslab.mhs as mhs

MODULES = (mhslab, bernoulli, compositions, congruences, exactnum, identities, mhs)
CLASSES = (bernoulli.BernoulliCache, mhs.PrefixTable)
MARK = "__bench_span__"


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def count_wrappers() -> int:
    """How many tracing wrappers are installed in mhslab right now."""
    found = {
        id(obj)
        for ns in [vars(m) for m in MODULES] + [vars(c) for c in CLASSES]
        for obj in ns.values()
        if hasattr(obj, MARK)
    }
    return len(found)


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, nested], where
        # nested says a span of the same name was already open.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._rows_seen: dict[int, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_names[name] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _function(self, module, attr: str, name: str, after=None) -> None:
        """Wrap module.attr and every by-name import of it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        for mod in MODULES:
            if vars(mod).get(attr) is original:
                self._patch(mod, attr, wrapper)

    def _method(self, cls, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], after))

    def _count(self, key: str, amount=lambda a, k, r: 1):
        def after(args, kwargs, result):
            self.counts[key] += amount(args, kwargs, result)

        return after

    def _table_built(self, args, kwargs, result) -> None:
        # A new table may reuse a dead one's id: forget that id's rows.
        self._rows_seen[id(args[0])] = set()
        exact = _arg(args, kwargs, 2, "prime") is None
        self.counts["mhs.tables_exact" if exact else "mhs.tables_mod"] += 1

    def _row(self, kind: str):
        def after(args, kwargs, result):
            key = (kind, _arg(args, kwargs, 1, "s"))
            seen = self._rows_seen.setdefault(id(args[0]), set())
            if key not in seen:
                seen.add(key)
                self.counts[f"mhs.{kind}_builds"] += 1
            self.counts[f"mhs.{kind}_calls"] += 1

        return after

    def _recurrence(self, args, kwargs, result) -> None:
        depth = len(_arg(args, kwargs, 1, "parts"))
        self.counts["mhs.mhs_all_calls"] += 1
        self.counts["mhs.recurrence_rows"] += depth
        self.counts["mhs.recurrence_cells"] += depth * (args[0].n + 1)

    def _warm(self, args, kwargs, result) -> None:
        top = self.counts["bernoulli.top_index"]
        self.counts["bernoulli.top_index"] = max(top, _arg(args, kwargs, 1, "n"))

    def _pool_factory(self, executor_cls):
        def pool(*args, **kwargs):
            self.counts["congruences.pools"] += 1
            self.counts["congruences.pool_workers"] += _arg(args, kwargs, 0, "max_workers")
            return executor_cls(*args, **kwargs)

        setattr(pool, MARK, "congruences.pool")
        return pool

    def install(self) -> "Tracer":
        calls = self._count
        self._method(bernoulli.BernoulliCache, "warm", "bernoulli.warm", self._warm)
        self._function(bernoulli, "bernoulli_mod", "bernoulli.mod", calls("bernoulli.mod_calls"))

        table = mhs.PrefixTable
        self._method(table, "__init__", "mhs.table", self._table_built)
        self._method(table, "inv_powers", "mhs.inv_powers", self._row("inv_powers"))
        self._method(table, "harmonic_prefix", "mhs.harmonic_prefix", self._row("harmonic_prefix"))
        self._method(table, "mhs_all", "mhs.mhs_all", self._recurrence)
        for attr in ("weighted_sum2", "weighted_sum2_all"):
            self._method(table, attr, "mhs.wsum2")
        for attr in ("weighted_sum3", "weighted_sum3_all"):
            self._method(table, attr, "mhs.wsum3")
        self._function(mhs, "weighted_sum2", "mhs.wsum2")
        self._function(mhs, "weighted_sum3", "mhs.wsum3")

        self._function(congruences, "run_check", "congruences.run_check",
                       calls("congruences.run_check_calls"))
        self._function(congruences, "run_scan", "congruences.run_scan")
        self._function(congruences, "run_battery", "congruences.run_battery")
        self._function(congruences, "fit_coefficient", "congruences.fit",
                       calls("congruences.fit_calls"))
        self._function(congruences, "reports_to_csv", "congruences.serialize")
        self._function(congruences, "reports_to_json", "congruences.serialize")
        pool = self._pool_factory(congruences.ProcessPoolExecutor)
        self._patch(congruences, "ProcessPoolExecutor", pool)

        self._function(exactnum, "is_prime", "exactnum.is_prime", calls("exactnum.is_prime_calls"))
        self._function(exactnum, "crt_list", "exactnum.crt")
        self._function(exactnum, "rational_reconstruct", "exactnum.reconstruct")

        points = calls("identities.instances", lambda a, k, r: r.points)
        for attr in ("run_thm21_suite", "run_thm31_suite", "probe_thm31_random"):
            self._function(identities, attr, "identities.suite", points)
        self._function(identities, "eval_formal_sum", "identities.eval_formal_sum")

        terms = calls("compositions.stuffle_terms", lambda a, k, r: len(r))
        self._function(compositions, "stuffle", "compositions.stuffle", terms)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def times(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, parent, nested), child in zip(self.spans, covered):
            own[name] += end - start - child
            if not nested:
                inclusive[name] += end - start
        return inclusive, own

    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """The value of each named metric: a time of a span or a counter."""
        inclusive, own = self.times()
        values: dict[str, float] = {}
        for metric in names:
            span, _, kind = metric.rpartition("_")
            if kind == "s" and span.endswith("_self"):
                values[metric] = own[span[: -len("_self")]]
            elif kind == "s":
                values[metric] = inclusive[span]
            else:
                values[metric] = self.counts[metric]
        return values

    def dump(self, path, header: dict) -> None:
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["spans"] = [
            [name, start - t0, end - t0, parent] for name, start, end, parent, _ in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)

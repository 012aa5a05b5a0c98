"""Span tracer for the benchmark's traced run.

While installed, every public gompkit function named in TRACED is
rebound, in each gompkit module namespace that holds it, to a wrapper
that records a span: name, start, end, parent span, round and work item.
Rebinding the importing module's name (``greedy.least_squares``,
``harness.gen_instance``) times the calls made inside the package too.
No package file changes, and leaving ``installed()`` restores the
original bindings.  Spans stay in memory, in flat arrays of numbers,
until ``write`` at the end.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TRACED = (
    "harness.run_trials",
    "harness.gen_instance",
    "greedy.gomp_run",
    "greedy.select_top_n",
    "linops.least_squares",
    "linops.orthogonal_factor",
    "linops.project_complement",
    "rip.exact_ric",
    "rip.du_ric_bound",
    "metrics.mar",
    "metrics.snr_threshold",
    "verify.random_lemma_instance",
    "verify.lemma4_sides",
    "verify.verify_selection_condition",
)


class Tracer:
    """Spans of the traced rounds: span i is (TRACED[name[i]], start[i],
    end[i], parent[i] (-1 at top level), round[i], items[item[i]])."""

    def __init__(self):
        self.name, self.parent, self.round_of, self.item_of = (array("i") for _ in range(4))
        self.start, self.end = array("d"), array("d")
        self.items: list[str | None] = [None]
        self.round = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)  # round -> count name -> value
        self._open: list[int] = []
        self._truth = None  # (matrix, support) of the last generated instance

    def __len__(self) -> int:
        return len(self.name)

    def mark(self, item: str) -> None:
        """Tag the spans that follow with a work-item id."""
        self.items.append(item)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        code = TRACED.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(code)
            self.parent.append(self._open[-1] if self._open else -1)
            self.round_of.append(self.round)
            self.item_of.append(len(self.items) - 1)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counts[self.round], args, result)
            return result

        return traced

    # Counts taken where the work happens, from a call's arguments and result.

    def _after_harness_gen_instance(self, counts, args, inst):
        self._truth = (inst.matrix, inst.signal.support)

    def _after_greedy_gomp_run(self, counts, args, trace):
        # Every pursuit in the workloads runs on the instance generated just
        # before it; the true support is known only through that instance.
        support = self._truth[1] if self._truth and self._truth[0] is args[0] else frozenset()
        counts["greedy.iterations"] += trace.iterations_used
        for record in trace.iterations:
            counts["greedy.picks"] += len(record.selected)
            counts["greedy.correct_picks"] += len(support.intersection(record.selected))

    def _after_rip_exact_ric(self, counts, args, est):
        a = args[0]
        n = getattr(a, "entries", a).shape[1]
        supports = math.comb(n, est.order)
        counts["rip.exact_ric.supports"] += supports
        # Bytes of the gathered k x k float64 Gram submatrices, computed from
        # the array sizes, not measured.
        counts["rip.exact_ric.chunk_bytes"] += supports * est.order * est.order * 8

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gompkit"]
        saved = []
        try:
            for qualname in TRACED:
                module, fn_name = qualname.split(".")
                original = getattr(sys.modules["gompkit." + module], fn_name)
                wrapper = self._wrap(qualname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            saved.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def per_round(self) -> dict[int, dict[str, Counter]]:
        """Calls, inclusive (busy) and self seconds per span name, per round.

        A span's self time is its duration minus its children's; calls are
        nested on one thread, so children never overlap.
        """
        child_s = [0.0] * len(self)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_s[parent] += self.end[i] - self.start[i]
        rounds: dict[int, dict[str, Counter]] = defaultdict(
            lambda: {"calls": Counter(), "busy_s": Counter(), "self_s": Counter()}
        )
        for i, code in enumerate(self.name):
            stats, name, busy = rounds[self.round_of[i]], TRACED[code], self.end[i] - self.start[i]
            stats["calls"][name] += 1
            stats["busy_s"][name] += busy
            stats["self_s"][name] += busy - child_s[i]
        return rounds

    def item_durations(self, name: str) -> dict[str, list[float]]:
        """Durations of the top-level ``name`` spans per work item, one per round."""
        code = TRACED.index(name)
        out: dict[str, list[float]] = defaultdict(list)
        for i, span_code in enumerate(self.name):
            if span_code == code and self.parent[i] < 0:
                out[self.items[self.item_of[i]]].append(self.end[i] - self.start[i])
        return out

    def write(self, path: Path, **header) -> None:
        """A JSON header line (``header`` plus the column names), then one
        line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["name", "start", "end", "parent", "round", "item"]
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "columns": columns}) + "\n")
            for i, code in enumerate(self.name):
                row = [TRACED[code], self.start[i], self.end[i], self.parent[i], self.round_of[i],
                       self.items[self.item_of[i]]]
                fh.write(json.dumps(row) + "\n")


def fastest_over(rounds: dict[int, dict[str, Counter]], stat: str, name: str) -> float:
    """The smallest per-round value of a time statistic."""
    return min(r[stat][name] for r in rounds.values())

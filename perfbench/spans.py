"""Spans and counters recorded around localcausal's functions, from outside.

The package binds names at import (``citest`` holds its own reference to
``contingency``, ``mbdiscovery`` to ``recog_pc`` and so on), so each
function is wrapped where its caller looks it up, not where it is
defined. Nothing inside ``src/`` changes; :meth:`Tracer.uninstall`
restores every original binding.

Every wrapped call is one span: name, start, end, parent span and the id
of the target run it belongs to. Spans stay in memory in flat arrays
and are written out by :meth:`Tracer.save` after the measurement. Self
time (a span's duration minus the time its child spans cover) and
per-name counts are accumulated as spans close, so the metrics never
need a second pass over the arrays.
"""

from __future__ import annotations

import os
import time
from array import array
from pathlib import Path

# (module, attribute, span name). The module is the caller's namespace;
# the span name is the layer that defines the function.
PATCH_POINTS = (
    ("bif", "load_bif", "bif.load_bif"),
    ("bnet", "sample", "bnet.sample"),
    ("data", "save_csv", "data.save_csv"),
    ("data", "load_csv", "data.load_csv"),
    ("citest", "contingency", "data.contingency"),
    ("citest", "g2_statistic", "citest.g2_statistic"),
    ("citest", "chi2_sf", "citest.chi2_sf"),
    ("citest", "d_separated", "bnet.d_separated"),
    ("pcdiscovery", "find_separator", "pcdiscovery.find_separator"),
    ("mbdiscovery", "find_separator", "pcdiscovery.find_separator"),
    ("mbdiscovery", "recog_pc", "pcdiscovery.recog_pc"),
    ("mbdiscovery", "recog_spouses", "mbdiscovery.recog_spouses"),
    ("mbdiscovery", "_remove_false_pc", "mbdiscovery._remove_false_pc"),
    ("mbdiscovery", "distinguish_pc", "mbdiscovery.distinguish_pc"),
    ("localgraph", "emb", "mbdiscovery.emb"),
    ("mbdiscovery", "emb", "mbdiscovery.emb"),
    ("localgraph", "meek_closure", "localgraph.meek_closure"),
    ("localgraph", "elcs", "localgraph.elcs"),
    ("metrics", "score_local", "metrics.score_local"),
)


class LayerStat:
    """Totals for one span name."""

    __slots__ = ("calls", "total_s", "self_s", "ci_tests", "hits", "cells",
                 "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.ci_tests = 0   # CI queries made inside the span, children included
        self.hits = 0       # find_separator calls that found a separator
        self.cells = 0      # contingency cells built
        self.bytes = 0      # CSV bytes written or read


class QueryShape:
    """What the CI queries looked like, counted at ``CiEngine.ci_test``.

    A query's canonical key is ``(min(x, y), max(x, y), sorted z)``; a
    repeat is a key already seen in the same target run, or anywhere in
    the runs on the same dataset (or oracle DAG).
    """

    def __init__(self):
        self.queries = 0
        self.repeat_target = 0
        self.repeat_dataset = 0
        self.cond_size = [0] * 5  # 0, 1, 2, 3, 4 or more
        self.unreliable = 0       # dof > 0 but too few rows per dof
        self.dof0 = 0             # data backend, no informative stratum
        self.independent = 0
        self._seen_target: set = set()
        self._seen_dataset: set = set()
        self._dataset = None

    def begin_run(self, dataset) -> None:
        self._seen_target = set()
        if dataset is not self._dataset:
            self._dataset = dataset
            self._seen_dataset = set()

    def observe(self, engine, x, y, z, result) -> None:
        zs = tuple(sorted(set(z)))
        key = (x, y, zs) if x < y else (y, x, zs)
        self.queries += 1
        if key in self._seen_target:
            self.repeat_target += 1
        else:
            self._seen_target.add(key)
        if key in self._seen_dataset:
            self.repeat_dataset += 1
        else:
            self._seen_dataset.add(key)
        self.cond_size[min(len(zs), 4)] += 1
        if not engine.is_oracle:
            if result.dof == 0:
                self.dof0 += 1
            elif not result.reliable:
                self.unreliable += 1
        if result.independent:
            self.independent += 1


class Tracer:
    """Installs span-recording wrappers on the localcausal modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, LayerStat] = {}
        self.shape = QueryShape()
        self.run_id = -1
        self._stack: list[list] = []   # open spans: [index, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def begin_run(self, dataset) -> None:
        """Start a new target run; ``dataset`` identifies its inputs."""
        self.run_id += 1
        self.shape.begin_run(dataset)

    def install(self) -> None:
        import localcausal
        from localcausal import citest

        for module_name, attr, span in PATCH_POINTS:
            module = getattr(localcausal, module_name)
            self._wrap(module, attr, span, _AFTER.get(span))
        self._wrap(citest.CiEngine, "ci_test", "citest.ci_test",
                   self._after_ci_test)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _after_ci_test(self, stat, args, kwargs, result) -> None:
        engine, x, y = args[:3]
        z = args[3] if len(args) > 3 else kwargs.get("z", ())
        self.shape.observe(engine, x, y, z, result)

    def _wrap(self, owner, attr, span, after) -> None:
        fn = getattr(owner, attr)
        self._restore.append((owner, attr, fn))
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
            self.stats[span] = LayerStat()
        name_id = self._name_ids[span]
        stat = self.stats[span]
        stack = self._stack
        shape = self.shape
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_run.append(self.run_id)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            queries = shape.queries
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.span_end[index] = end
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                stat.ci_tests += shape.queries - queries
            if after is not None:
                after(stat, args, kwargs, result)
                if stack:  # the counting is overhead, not the parent's work
                    stack[-1][1] += clock() - end
            return result

        setattr(owner, attr, wrapper)

    def save(self, path: Path) -> None:
        """Write every span to ``path`` as a NumPy ``.npz`` archive."""
        import numpy as np

        origin = self.span_start[0] if self.span_start else 0.0
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 run=np.frombuffer(self.span_run, dtype=np.int64),
                 start=np.frombuffer(self.span_start) - origin,
                 end=np.frombuffer(self.span_end) - origin)

    def layer_metrics(self, untraced_s: float, traced_s: float,
                      ci_tests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``untraced_s``/``traced_s`` time the same pass without and with
        the wrappers; ``ci_tests`` is that pass's query count.
        """
        s, q = self.stats, self.shape
        out: dict[str, tuple[float, str]] = {}

        def ratio(a, b):
            return a / b if b else 0.0

        cont = s["data.contingency"]
        out["data.contingency.calls"] = (cont.calls, "count")
        out["data.contingency.self_s"] = (cont.self_s, "s")
        out["data.contingency.us_per_call"] = (
            1e6 * ratio(cont.self_s, cont.calls), "us")
        out["data.contingency.cells_per_call"] = (
            ratio(cont.cells, cont.calls), "count")
        out["citest.g2_statistic.self_s"] = (s["citest.g2_statistic"].self_s,
                                             "s")
        out["citest.chi2_sf.self_s"] = (s["citest.chi2_sf"].self_s, "s")
        ci = s["citest.ci_test"]
        out["citest.ci_test.calls"] = (ci.calls, "count")
        out["citest.ci_test.self_s"] = (ci.self_s, "s")
        out["citest.us_per_test"] = (1e6 * ratio(untraced_s, ci_tests), "us")
        dsep = s["bnet.d_separated"]
        out["bnet.d_separated.calls"] = (dsep.calls, "count")
        out["bnet.d_separated.self_s"] = (dsep.self_s, "s")
        out["citest.repeat_frac.target"] = (
            ratio(q.repeat_target, q.queries), "fraction")
        out["citest.repeat_frac.dataset"] = (
            ratio(q.repeat_dataset, q.queries), "fraction")
        for size, label in enumerate(("0", "1", "2", "3", "4plus")):
            out[f"citest.cond_size.{label}"] = (q.cond_size[size], "count")
        out["citest.unreliable"] = (q.unreliable, "count")
        out["citest.dof0"] = (q.dof0, "count")
        out["citest.indep_frac"] = (ratio(q.independent, q.queries),
                                    "fraction")
        rpc = s["pcdiscovery.recog_pc"]
        out["pcdiscovery.recog_pc.self_s"] = (rpc.self_s, "s")
        out["pcdiscovery.recog_pc.ci_tests"] = (rpc.ci_tests, "count")
        sep = s["pcdiscovery.find_separator"]
        out["pcdiscovery.find_separator.calls"] = (sep.calls, "count")
        out["pcdiscovery.find_separator.hit_frac"] = (
            ratio(sep.hits, sep.calls), "fraction")
        for stage in ("recog_spouses", "_remove_false_pc", "distinguish_pc"):
            st = s[f"mbdiscovery.{stage}"]
            out[f"mbdiscovery.{stage}.self_s"] = (st.self_s, "s")
            out[f"mbdiscovery.{stage}.ci_tests"] = (st.ci_tests, "count")
        out["mbdiscovery.emb.calls"] = (s["mbdiscovery.emb"].calls, "count")
        meek = s["localgraph.meek_closure"]
        out["localgraph.meek_closure.calls"] = (meek.calls, "count")
        out["localgraph.meek_closure.self_s"] = (meek.self_s, "s")
        for span in ("bif.load_bif", "bnet.sample"):
            st = s[span]
            out[f"{span}.s"] = (ratio(st.total_s, st.calls), "s")
        for span in ("data.save_csv", "data.load_csv"):
            st = s[span]
            out[f"{span}.s"] = (ratio(st.total_s, st.calls), "s")
            out[f"{span}.mb_per_s"] = (ratio(st.bytes / 1e6, st.total_s),
                                       "MB/s")
        out["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1.0,
                                      "fraction")
        out["trace.spans"] = (len(self.span_name), "count")
        return out


def _count_hit(stat, args, kwargs, result) -> None:
    if result is not None:
        stat.hits += 1


def _count_cells(stat, args, kwargs, result) -> None:
    stat.cells += result.counts.size


def _count_written(stat, args, kwargs, result) -> None:
    stat.bytes += os.path.getsize(args[1])


def _count_read(stat, args, kwargs, result) -> None:
    stat.bytes += os.path.getsize(args[0])


_AFTER = {
    "pcdiscovery.find_separator": _count_hit,
    "data.contingency": _count_cells,
    "data.save_csv": _count_written,
    "data.load_csv": _count_read,
}

"""Outside-in span tracer for the mschemes layers.

``Tracer.install`` replaces public functions and methods of ``gf``,
``linalg``, ``levels``, ``factor``, ``assoc``, ``mscheme`` and ``cli``
with timing wrappers (module globals and class attributes, so calls the
library makes internally are seen too); ``uninstall`` puts the originals
back.  The library itself is not modified.

Each span is a row of four columns kept in memory: name id, parent row
(-1 for a root), start and end (``time.perf_counter``).  A span's self
time is its duration minus the time its direct children cover.  A few
wrappers also add to named counters (rows of a batch, cells of an rref,
whether a rule acted).
"""

from __future__ import annotations

import statistics
import weakref
from array import array
from collections import Counter
from time import perf_counter

RULES = ("R1", "R2", "R3", "R4", "R5")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.batch_spans = array("q")  # mult_batch spans with at least one row
        self.build_spans = array("q")  # reduction_matrix calls that built R
        self._seen_r = {}
        self._undo = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid, fn, args, kwargs):
        """Run fn inside a span; returns (span row, result)."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        t0 = perf_counter()
        try:
            return i, fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def span(self, name, fn, *args, **kwargs):
        return self.call(self.name_id(name), fn, args, kwargs)[1]

    def _plain(self, name, fn):
        nid = self.name_id(name)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)[1]

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, hook=None):
        """Trace owner.attr as `name`; hook(row, args, result) sees each call."""
        fn = owner.__dict__[attr]
        if hook is None:
            wrapper = self._plain(name, fn)
        else:
            nid = self.name_id(name)

            def wrapper(*args, **kwargs):
                i, res = self.call(nid, fn, args, kwargs)
                hook(i, args, res)
                return res

        self._patch(owner, attr, wrapper)
        return wrapper

    # -- the layers -------------------------------------------------------------

    def install(self):
        from mschemes import assoc, cli, factor, gf, levels, linalg, mscheme

        LA = levels.LevelAlgebra
        self.wrap(levels, "kconvolve", "levels.kconvolve")
        for meth in ("reduce_tensor", "mult", "idempotent_of", "apply_perm",
                     "embed_from_below", "rel_trace_last"):
            self.wrap(LA, meth, f"levels.{meth}")
        self.wrap(LA, "mult_batch", "levels.mult_batch", self._on_mult_batch)
        self.wrap(LA, "reduction_matrix", "levels.reduction_matrix", self._on_reduction_matrix)
        build = self.wrap(levels, "build_levels", "levels.build_levels")
        self._patch(factor, "build_levels", build)

        self.wrap(linalg.KOps, "rref", "linalg.rref", self._on_rref)
        self.wrap(linalg.KOps, "matmul", "linalg.matmul")

        for fn in ("is_split_squarefree", "extension_for_levels", "lift_poly"):
            traced = self.wrap(gf, fn, f"gf.{fn}")
            self._patch(factor, fn, traced)

        refine = factor.__dict__["refine_step"]

        def refine_step(sys, rule):
            i, res = self.call(self.name_id(f"factor.refine_step.{rule}"), refine, (sys, rule), {})
            if not isinstance(res, factor.NoChange):
                self.counters[f"refine_step.{rule}.acted"] += 1
            return res

        self._patch(factor, "refine_step", refine_step)
        self.wrap(factor, "matching_refinement", "factor.matching_refinement")
        iks = self._plain("factor.iks_factor", factor.__dict__["iks_factor"])

        def iks_factor(*args, stage_hook=None, **kwargs):
            def hook(sys):
                self.counters["factor.events"] += 1
                if stage_hook:
                    stage_hook(sys)

            return iks(*args, stage_hook=hook, **kwargs)

        self._patch(factor, "iks_factor", iks_factor)

        for fn in ("cyclotomic_scheme", "verify_scheme", "intersection_tensor",
                   "check_tensor_identities", "small_intersection_search",
                   "cyclotomic_deviation_report"):
            self.wrap(assoc, fn, f"assoc.{fn}")
        for fn in ("catalog_mscheme", "check_properties", "find_matchings", "nonexistence_check"):
            self.wrap(mscheme, fn, f"mscheme.{fn}")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _on_mult_batch(self, i, args, res):
        rows = args[1].shape[0]
        self.counters["mult_batch.rows"] += rows
        if rows:
            self.batch_spans.append(i)

    def _on_reduction_matrix(self, i, args, res):
        if res is None:
            return
        ref = self._seen_r.get(id(res))
        if ref is not None and ref() is res:
            return
        self._seen_r[id(res)] = weakref.ref(res)
        self.build_spans.append(i)
        self.counters["reduction_matrix.bytes"] += res.nbytes

    def _on_rref(self, i, args, res):
        rows, cols, d = args[1].shape
        self.counters["rref.cells"] += rows * cols * d

    # -- analysis -----------------------------------------------------------------

    def columns(self):
        import numpy as np

        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        import numpy as np

        name, parent, start, end = self.columns()
        dur = end - start
        self_t = dur.copy()
        has_parent = parent >= 0
        self_t -= np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        return {n: (int(calls[j]), float(incl[j]), float(selfs[j])) for j, n in enumerate(self.names)}

    def child_counts(self, rows, child_name):
        """Number of direct `child_name` children of each span in rows."""
        import numpy as np

        name, parent, _, _ = self.columns()
        cid = self._ids.get(child_name)
        if cid is None:
            return np.zeros(len(rows), dtype=np.int64)
        kids = np.bincount(parent[(name == cid) & (parent >= 0)], minlength=len(name))
        return kids[np.asarray(rows, dtype=np.int64)]

    def layer_metrics(self, pass_times, untraced_wall_s):
        """The benchmark's per-layer metrics, per pass of the workload.

        pass_times are the traced passes; untraced_wall_s is the mean pass
        of the same inputs without tracing, from the same process.  Means,
        not medians, so that trace.self_sum_s equals trace.wall_s.
        """
        s = self.summary()
        per = 1.0 / len(pass_times)
        out = {}

        def get(name):
            return s.get(name, (0, 0.0, 0.0))

        def put(key, value, unit):
            out[key] = {"value": value * per if unit != "ratio" else value, "unit": unit}

        for name in ("levels.kconvolve", "levels.reduce_tensor"):
            calls, _, self_s = get(name)
            put(f"{name}.calls", calls, "count")
            put(f"{name}.self_s", self_s, "s")
        for name in ("levels.mult", "levels.idempotent_of", "levels.apply_perm",
                     "levels.embed_from_below", "levels.rel_trace_last"):
            calls, incl, _ = get(name)
            put(f"{name}.calls", calls, "count")
            put(f"{name}.incl_s", incl, "s")

        _, _, starts, ends = self.columns()
        builds = list(self.build_spans)
        put("levels.reduction_matrix.builds", len(builds), "count")
        put("levels.reduction_matrix.build_s", float(sum(ends[i] - starts[i] for i in builds)), "s")
        put("levels.reduction_matrix.bytes", self.counters["reduction_matrix.bytes"], "B")
        batches = list(self.batch_spans)
        blas = int((self.child_counts(batches, "levels.mult") == 0).sum()) if batches else 0
        calls, _, self_s = get("levels.mult_batch")
        put("levels.mult_batch.calls", calls, "count")
        put("levels.mult_batch.rows", self.counters["mult_batch.rows"], "count")
        put("levels.mult_batch.self_s", self_s, "s")
        put("levels.mult_batch.blas_ratio", blas / len(batches) if batches else 0.0, "ratio")
        put("levels.build_levels.self_s", get("levels.build_levels")[2], "s")

        calls, _, self_s = get("linalg.rref")
        put("linalg.rref.calls", calls, "count")
        put("linalg.rref.self_s", self_s, "s")
        put("linalg.rref.cells", self.counters["rref.cells"], "count")
        put("linalg.matmul.self_s", get("linalg.matmul")[2], "s")
        for fn in ("is_split_squarefree", "extension_for_levels", "lift_poly"):
            put(f"gf.{fn}.self_s", get(f"gf.{fn}")[2], "s")

        for rule in RULES:
            calls, incl, _ = get(f"factor.refine_step.{rule}")
            acted = self.counters[f"refine_step.{rule}.acted"]
            put(f"factor.refine_step.{rule}.calls", calls, "count")
            put(f"factor.refine_step.{rule}.incl_s", incl, "s")
            put(f"factor.refine_step.{rule}.acted_ratio", acted / calls if calls else 0.0, "ratio")
        put("factor.matching_refinement.incl_s", get("factor.matching_refinement")[1], "s")
        put("factor.iks_factor.self_s", get("factor.iks_factor")[2], "s")
        put("factor.events", self.counters["factor.events"], "count")

        for fn in ("cyclotomic_scheme", "verify_scheme", "intersection_tensor",
                   "check_tensor_identities", "small_intersection_search",
                   "cyclotomic_deviation_report"):
            put(f"assoc.{fn}.self_s", get(f"assoc.{fn}")[2], "s")
        for fn in ("catalog_mscheme", "check_properties", "find_matchings", "nonexistence_check"):
            put(f"mscheme.{fn}.self_s", get(f"mscheme.{fn}")[2], "s")
        calls, _, self_s = get("cli.main")
        put("cli.main.calls", calls, "count")
        put("cli.main.self_s", self_s, "s")
        put("trace.self_sum_s", sum(v[2] for v in s.values()), "s")
        traced = statistics.fmean(pass_times)
        out["trace.wall_s"] = {"value": traced, "unit": "s"}
        out["trace.untraced_wall_s"] = {"value": untraced_wall_s, "unit": "s"}
        out["trace.overhead_s"] = {"value": traced - untraced_wall_s, "unit": "s"}
        return out

    def write(self, path):
        """Spans as columns (.npz), with the name table."""
        import numpy as np

        name, parent, start, end = self.columns()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)

"""Outside-in tracer: spans around calls into endoscope's public functions.

The package is not modified.  ``Tracer.install`` rebinds every module
attribute (in ``endoscope`` and its submodules) that *is* one of the
traced functions, because ``from .linalg import kernel_basis`` copies the
binding into the importing module; methods and the ``EndoRing.radical``
property are wrapped on their classes.  ``uninstall`` puts the originals
back.

Each call records a span ``[name, start, end, parent, job]`` in memory.
Self time is a span's duration minus the durations of its child spans.
Elimination sizes are counted from the ``Mat`` argument at each
elimination entry point; the counting time is subtracted from the span
clock, so it shows only in the traced run's wall time (the overhead).
Cache figures come from ``cache_info()`` deltas taken around each job.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# (submodule, attribute, span name)
FUNCTIONS = (
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "intersect", "linalg.intersect"),
    ("homs", "hom_basis", "homs.hom_basis"),
    ("homs", "end_ring", "homs.end_ring"),
    ("homs", "are_isomorphic", "homs.are_isomorphic"),
    ("homs", "is_local", "homs.is_local"),
    ("homs", "noniso_subspace", "homs.noniso_subspace"),
    ("reps", "direct_sum", "reps.direct_sum"),
    ("endosocle", "family_endosocle", "endosocle.family_endosocle"),
    ("endosocle", "endosocle", "endosocle.endosocle"),
    ("radical", "radical_profile", "radical.radical_profile"),
    ("quiver", "act", "quiver.act"),
    ("matsub", "evaluate", "matsub.evaluate"),
    ("matsub", "check_endo_invariant", "matsub.check_endo_invariant"),
    ("serialize", "load_family_file", "serialize.load_family_file"),
    ("cli", "main", "cli.main"),
)
# (submodule, class, method, span name)
METHODS = (
    ("linalg", "Mat", "rank", "linalg.rank"),
    ("homs", "HomSpace", "coordinates", "homs.coordinates"),
    ("homs", "HomSpace", "from_coordinates", "homs.from_coordinates"),
    ("reps", "Morphism", "compose", "reps.compose"),
)
# (submodule, class, property, span name)
PROPERTIES = (("homs", "EndoRing", "radical", "homs.radical"),)

ELIMINATION = {"linalg.kernel_basis", "linalg.rref", "linalg.solve", "linalg.invert", "linalg.rank"}

# Layers whose share of traced job time is reported: the union of their spans.
SHARES = {
    "share.linalg": {name for *_, name in FUNCTIONS + METHODS if name.startswith("linalg.")},
    "share.end_ring_radical": {"homs.end_ring", "homs.radical"},
    "share.compose_coordinates": {"reps.compose", "homs.coordinates", "homs.from_coordinates"},
    "share.certificates": {"homs.are_isomorphic", "homs.is_local", "homs.noniso_subspace"},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.job = -1
        self.lost = 0.0  # seconds spent counting, hidden from the span clock
        self.counts: Counter = Counter()
        self.hom_keys: set = set()  # distinct hom_basis arguments in the current job
        self._cache0 = None

    def clock(self) -> float:
        return time.perf_counter() - self.lost

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
            if after is not None:
                after(result)
            return result

        return traced

    def _count_elimination(self, args):
        t0 = time.perf_counter()
        m = args[0]
        c = self.counts
        c["linalg.elim.cells"] += m.rows * m.cols
        c["linalg.elim.nnz"] += sum(1 for row in m.entries for x in row if x)
        c["linalg.elim.max_cols"] = max(c["linalg.elim.max_cols"], m.cols)
        self.lost += time.perf_counter() - t0

    def _note_hom_args(self, args):
        self.hom_keys.add(args[:2])

    def _note_end_ring(self, ring):
        self.counts["homs.end_ring.dim_max"] = max(self.counts["homs.end_ring.dim_max"], ring.dim)

    def _note_iso(self, cert):
        self.counts[f"homs.iso.{cert.status}"] += 1

    def _hooks(self, name):
        if name in ELIMINATION:
            return self._count_elimination, None
        return {
            "homs.hom_basis": (self._note_hom_args, None),
            "homs.end_ring": (None, self._note_end_ring),
            "homs.are_isomorphic": (None, self._note_iso),
        }.get(name, (None, None))

    # -- installing ------------------------------------------------------------

    def install(self):
        package = [m for k, m in list(sys.modules.items()) if k == "endoscope" or k.startswith("endoscope.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"endoscope.{mod_name}"], attr)
            traced = self.wrap(name, original, *self._hooks(name))
            if hasattr(original, "cache_info"):
                traced.cache_info = original.cache_info
                traced.cache_clear = original.cache_clear
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"endoscope.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, *self._hooks(name)))
            self._restore.append((cls, attr, original))
        for mod_name, cls_name, attr, name in PROPERTIES:
            cls = getattr(sys.modules[f"endoscope.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, property(self.wrap(name, original.fget)))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, index, homs):
        """Open the root span of a job; call after the caches were cleared."""
        self.job = index
        self.hom_keys = set()
        self._cache0 = (homs.hom_basis.cache_info(), homs.end_ring.cache_info())
        self._stack.append(len(self.spans))
        self.spans.append(["job", self.clock(), 0.0, -1, index])

    def end_job(self, homs):
        self.spans[self._stack.pop()][2] = self.clock()
        hom0, end0 = self._cache0
        hom1, end1 = homs.hom_basis.cache_info(), homs.end_ring.cache_info()
        misses = hom1.misses - hom0.misses
        c = self.counts
        c["homs.hom_basis.misses"] += misses
        c["homs.hom_basis.hits"] += hom1.hits - hom0.hits
        c["homs.end_ring.misses"] += end1.misses - end0.misses
        return misses, len(self.hom_keys)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of everything recorded so far."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls, total, self_s = Counter(), Counter(), Counter()
        # a span nested in a span of the same name adds to calls, not to time
        open_names = [()] * n
        for i, s in enumerate(spans):
            name, parent = s[0], s[3]
            above = open_names[parent] if parent >= 0 else ()
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if name not in above:
                total[name] += dur[i]
                above = above + (name,)
            open_names[i] = above
        jobs_s = total["job"]

        out = {}
        for name in sorted(name for *_, name in FUNCTIONS + METHODS + PROPERTIES):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        for key in ("linalg.elim.cells", "linalg.elim.nnz", "linalg.elim.max_cols",
                    "homs.hom_basis.misses", "homs.end_ring.misses", "homs.end_ring.dim_max",
                    "homs.iso.iso", "homs.iso.certified_no", "homs.iso.presumed_no"):
            out[key] = c[key]
        lookups = c["homs.hom_basis.hits"] + c["homs.hom_basis.misses"]
        out["homs.hom_basis.hit_ratio"] = c["homs.hom_basis.hits"] / lookups if lookups else 0.0
        for share, names in SHARES.items():
            out[share] = _union(spans, dur, names) / jobs_s if jobs_s else 0.0
        out["trace.jobs_s"] = jobs_s
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _union(spans, dur, names) -> float:
    """Time covered by spans named in ``names`` (nested ones counted once)."""
    inside = [False] * len(spans)
    covered = 0.0
    for i, s in enumerate(spans):
        mine = s[0] in names
        parent_inside = s[3] >= 0 and inside[s[3]]
        inside[i] = mine or parent_inside
        if mine and not parent_inside:
            covered += dur[i]
    return covered

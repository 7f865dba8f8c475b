"""In-process tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``conformal`` module from
outside: no source file of the package changes.  A wrapped function is
replaced in every ``conformal`` module that holds it by name (for example
``conformal.gsb.reduce_poly`` and ``conformal.envelope.reduce_poly`` are the
same function object imported twice), and methods are wrapped on their class.

Two kinds of wrapper exist:

* span wrappers record one span per call: name, parent span, start, end.
  Spans live in four flat arrays and are written out once, by ``dump``.
  Recursive calls inside the ``algebra`` layer open no new span (the
  memoized kernels recurse millions of times); they are counted only, and
  their time is the enclosing algebra span's self time.
* count wrappers only count calls (and hits) of hot lookups such as
  ``RelationSet.has_reduction`` and ``AlgebraSignature.word_key``; their
  time stays in the self time of the span that called them.

Counters depend only on the work done, so they repeat exactly between two
runs of the same input under a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# Span functions, by attribute path under ``conformal``; the span is named
# after the path and its layer is the module.  Besides the entry points that
# metrics name, the list holds every function between ``cli.main`` and them
# that does work of its own (check_gsb_rset, equivalence_check, ...), so that
# this work is not charged to the self time of ``cli``.
SPAN_FUNCTIONS = [
    "algebra._gen_mult", "algebra._word_mult", "algebra._word_D",
    "algebra.mult", "algebra.poly_mult", "algebra.apply_D", "algebra.normalize",
    "rewriting.reduce_poly",
    "gsb.enumerate_compositions", "gsb.interreduce", "gsb.complete",
    "gsb.check_gsb_rset",
    "envelope.instantiate_schemas", "envelope.builtin_example",
    "envelope.equivalence_check", "envelope.schema_shapes",
    "dsl.parse_presentation",
    "rewriting.RelationSet.__init__", "rewriting.RelationSet.polys",
    "envelope.SchemaIndex.__init__", "envelope.SchemaIndex.instances_for",
]


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]            # open span indices, -1 is the root
        self._layers = [None]         # layer of each open span
        self.counts: Counter = Counter()
        self.signatures: list = []
        self._complete_depth = 0

    # span bookkeeping ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, layer: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``after(result)`` may add counters from the call's result.
        """
        nid = self._name_id(name)
        counts = self.counts
        calls_key = name + ".calls"
        stack, layers = self._stack, self._layers
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent
        clock = time.perf_counter
        collapse = layer == "algebra"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if collapse and layers[-1] == "algebra":
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layers.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name: str, fn, hit=None):
        """Wrap ``fn`` to count calls, and hits where ``hit(result)``."""
        counts = self.counts
        calls_key, hits_key = name + ".calls", name + ".hits"
        if hit is None:
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                result = fn(*args, **kwargs)
                if hit(result):
                    counts[hits_key] += 1
                return result
        return wrapper

    # installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's entry points in every module that holds them."""
        import conformal
        import conformal.cli  # noqa: F401  (its imported names get wrapped too)
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "conformal" or n.startswith("conformal."))]

        def resolve(path):
            obj = conformal
            for part in path.split("."):
                obj = getattr(obj, part)
            return obj

        def replace_everywhere(old, new):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is old:
                        setattr(m, attr, new)

        afters = {
            "rewriting.reduce_poly": self._after_reduce,
            "gsb.enumerate_compositions": self._after_enumerate,
            "gsb.complete": self._after_complete,
            "envelope.instantiate_schemas": self._after_instantiate,
        }
        for path in SPAN_FUNCTIONS:
            owner_path, attr = path.rsplit(".", 1)
            owner = resolve(owner_path)
            fn = getattr(owner, attr)
            traced = fn if path != "gsb.complete" else self._complete_scope(fn)
            wrapper = self.span(path, path.split(".")[0], traced, afters.get(path))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                replace_everywhere(fn, wrapper)

        # _gen_mult misses: the memo key is absent from the signature's cache
        gm_span = conformal.algebra._gen_mult
        counts = self.counts

        def gen_mult(sig, g, n, v):
            if (g, n, v) not in getattr(sig, "_gm_cache", ()):
                counts["algebra._gen_mult.misses"] += 1
            return gm_span(sig, g, n, v)
        replace_everywhere(gm_span, gen_mult)

        replace_everywhere(conformal.rewriting.eval_pattern,
                           self.count("rewriting.eval_pattern",
                                      conformal.rewriting.eval_pattern))
        rs = conformal.rewriting.RelationSet
        rs.find_one = self.count("rewriting.find_one", rs.find_one,
                                 hit=lambda r: r is not None)
        rs.has_reduction = self.count("rewriting.has_reduction",
                                      rs.has_reduction, hit=bool)
        rs.add = self.count("rewriting.relationset.add", rs.add)
        rs.remove = self.count("rewriting.relationset.remove", rs.remove)
        materialize = rs._materialize

        def _materialize(rset, sub):
            before = rset.materialized
            materialize(rset, sub)
            counts["rewriting.materialized"] += rset.materialized - before
        rs._materialize = _materialize

        sig_cls = conformal.words.AlgebraSignature
        sig_cls.word_key = self.count("words.word_key", sig_cls.word_key)
        sig_init = sig_cls.__init__
        signatures = self.signatures

        def __init__(sig, *args, **kwargs):
            sig_init(sig, *args, **kwargs)
            signatures.append(sig)
        sig_cls.__init__ = __init__

    # result hooks ----------------------------------------------------------

    def _after_reduce(self, trace):
        self.counts["rewriting.reduce_poly.steps"] += len(trace.steps)

    def _after_enumerate(self, comps):
        self.counts["gsb.compositions"] += len(comps)
        if self._complete_depth:
            self.counts["gsb.complete.attempted"] += len(comps)

    def _after_complete(self, result):
        self.counts["gsb.complete.rounds"] += result.rounds
        self.counts["gsb.complete.added"] += result.added
        self.counts["gsb.basis_size"] = len(result.basis)

    def _after_instantiate(self, polys):
        self.counts["envelope.instantiate_schemas.instances"] += len(polys)

    def _complete_scope(self, fn):
        def complete(*args, **kwargs):
            self._complete_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._complete_depth -= 1
        return complete

    # output ------------------------------------------------------------------

    def cache_sizes(self) -> dict:
        gm = sum(len(getattr(s, "_gm_cache", ())) for s in self.signatures)
        wd = sum(len(getattr(s, "_wd_cache", ())) for s in self.signatures)
        wk = sum(len(getattr(s, "_wkey_cache", ())) for s in self.signatures)
        return {"algebra.cache_entries": gm + wd, "words.wkey_cache_entries": wk}

    def dump(self, path: str) -> None:
        """Write spans and counters once: a JSON header line, then arrays."""
        open_spans = [i for i in self._stack if i >= 0]
        if open_spans:
            raise RuntimeError(f"{len(open_spans)} spans still open at dump")
        counts = dict(self.counts)
        counts.update(self.cache_sizes())
        header = {"names": self.names, "spans": len(self.span_start),
                  "counts": counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            self.span_name.tofile(fh)
            self.span_parent.tofile(fh)
            self.span_start.tofile(fh)
            self.span_end.tofile(fh)


def load(path: str):
    """Read a dump back: (header, name ids, parent ids, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for code in ("i", "i", "d", "d"):
            a = array(code)
            a.fromfile(fh, n)
            cols.append(a)
    return (header, *cols)


def self_times(names, name_ids, parents, starts, ends) -> dict:
    """Seconds per span name: each span's duration minus its children's."""
    n = len(starts)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = dict.fromkeys(names, 0.0)
    for i in range(n):
        out[names[name_ids[i]]] += ends[i] - starts[i] - child[i]
    return out

"""Span tracing of the oddgirth package from outside, without editing it.

A Tracer replaces every module-level binding of the listed public functions
(``from .graphs import distance_data`` makes one binding per importing
module) with a wrapper that records a span: name, start, end, parent span
and workload item.  ``numpy.linalg.eigvalsh`` is wrapped too, counting the
matrices it is handed, so eigensolves are counted where they happen.
Spans stay in memory until the run writes them out.
"""

import functools
import math
import sys
import time

import numpy as np

# (module that defines it, function name) for every traced layer boundary
TRACED = [
    ("oddgirth.scan", "scan_enumerated"),
    ("oddgirth.scan", "scan_corpus"),
    ("oddgirth.scan", "screen_range"),
    ("oddgirth.graphs", "distance_data"),
    ("oddgirth.graphs", "odd_girth"),
    ("oddgirth.graphs", "parse_graph6"),
    ("oddgirth.graphs", "graph_from_mask"),
    ("oddgirth.graphs", "encode_graph6"),
    ("oddgirth.graphs", "generate_family"),
    ("oddgirth.spectral", "spectrum"),
    ("oddgirth.spectral", "idempotents"),
    ("oddgirth.spectral", "local_multiplicities"),
    ("oddgirth.predistance", "predistance_polynomials"),
    ("oddgirth.predistance", "check_parity"),
    ("oddgirth.verify", "verify_theorem"),
    ("oddgirth.verify", "intersection_array"),
    ("oddgirth.verify", "distance_matrices"),
    ("oddgirth.verify", "check_distance_polynomial"),
    ("oddgirth.verify", "check_hoffman"),
    ("oddgirth.verify", "vandermonde_certificate"),
]

EIGVALSH = "numpy.linalg.eigvalsh"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "count")

    def __init__(self, sid, name, start, parent, item):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item
        self.count = None

    def to_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            "count": self.count,
        }


def certificate_headroom(cert):
    """log10(tol/residual), or log10(margin/tol) for eigenvalue symmetry; None if n/a."""
    if cert.passed is None or cert.residual is None or not cert.tol:
        return None
    if cert.name == "eigenvalue_symmetry":
        ratio = cert.residual / cert.tol
    elif cert.residual == 0:
        return math.inf
    else:
        ratio = cert.tol / cert.residual
    return math.log10(ratio) if ratio > 0 else -math.inf


class Tracer:
    """Wraps the traced functions while installed; records spans and outcomes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None  # workload item id set by the benchmark, inherited by children
        self.verify_seq = 0
        self.missing = []
        self.screen = {"masks": 0, "connected": 0, "hits": 0}
        self.reports = []  # (met, [headroom, ...]) per verify_theorem call
        self._patches = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        self.missing = []
        for modname, fname in TRACED:
            mod = sys.modules.get(modname)
            orig = getattr(mod, fname, None) if mod is not None else None
            if orig is None:
                self.missing.append("%s.%s" % (modname, fname))
                continue
            wrapper = self._wrap(fname, orig)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "") or ""
                if name != "oddgirth" and not name.startswith("oddgirth."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._patches.append((other, attr, orig))
                        setattr(other, attr, wrapper)
        orig = np.linalg.eigvalsh
        self._patches.append((np.linalg, "eigvalsh", orig))
        np.linalg.eigvalsh = self._wrap(EIGVALSH, orig)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        item = parent.item if parent is not None else self.item
        if name == "verify_theorem" and item is None:
            item = "verify#%d" % self.verify_seq
            self.verify_seq += 1
        span = Span(len(self.spans), name, 0.0, parent.id if parent else None, item)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        self._observe(span, args, result)
        return result

    def _observe(self, span, args, result):
        if span.name == EIGVALSH:
            a = np.asarray(args[0])
            span.count = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        elif span.name == "screen_range":
            n, start, stop = args[:3]
            examined, hits = result
            self.screen["masks"] += stop - start
            self.screen["connected"] += int(examined)
            self.screen["hits"] += len(hits)
        elif span.name == "verify_theorem":
            heads = [certificate_headroom(c) for c in result.certificates.values()]
            self.reports.append((bool(result.hypothesis_met), [h for h in heads if h is not None]))

    # -- aggregation ------------------------------------------------------

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name):
        return sum(self.durations(name))

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name):
        """Total duration of the named spans minus the time their children cover.

        Eigensolve spans only count matrices: the solve is the calling layer's
        own work, so it is not subtracted.
        """
        child = {}
        for s in self.spans:
            if s.parent is not None and s.name != EIGVALSH:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        return sum(s.end - s.start - child.get(s.id, 0.0) for s in self.spans if s.name == name)

    def under(self, ancestor_name, name):
        """Spans called name that have a span called ancestor_name above them."""
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None:
                if by_id[p].name == ancestor_name:
                    out.append(s)
                    break
                p = by_id[p].parent
        return out

    def to_records(self):
        return [s.to_dict() for s in self.spans]

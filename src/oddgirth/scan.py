"""Counterexample scan: screen every small graph, fully verify the survivors.

The screen computes exactly the theorem hypothesis (connected, finite odd
girth >= 2d+1 where d+1 is the clustered distinct-eigenvalue count) for every
edge bitmask; the full certificate pipeline then runs on the handful of
hypothesis-met graphs.  A connected graph of diameter D has at least D+1
distinct eigenvalues, so d >= D and every hit has odd girth >= 2D+1.  A graph
with a triangle has odd girth 3, so it can be a hit only if D = 1, which
makes it the complete graph K_n.

The screen runs in three exact steps, each on fewer masks.  Connectivity
(no empty cut) and triangles are bitwise tests on the masks themselves; only
the connected masks that are triangle-free or complete go to the distance
layer, which tests odd girth >= 2D+1; only those that pass have their
eigenvalues solved for.
"""

import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from .graphs import (
    MASK_BATCH,
    GraphError,
    encode_graph6,
    graph_from_mask,
    mask_connected,
    mask_distances,
    mask_triangle_free,
    parse_graph6,
)
from .spectral import cluster_breaks
from .verify import verify_theorem

BACKEND = "python"  # reported in scan summaries; there is one screen

_PARALLEL_FLOOR = 1 << 16  # don't fork for ranges a single pass handles instantly

# per-n screen counts, each a subset of the one before: the expanded masks go
# through the distance layer, and every survivor of its exact prefilter costs
# one eigensolve
FUNNEL_STAGES = ("masks", "connected", "expanded", "survivors", "hits")


@dataclass
class ScanHit:
    """One hypothesis-met graph and its full verification report."""

    n: int
    mask: int
    graph6: str
    report: object

    def to_dict(self):
        c = self.report.conclusion
        return {
            "graph6": self.graph6,
            "n": self.n,
            "d": self.report.spectrum.d,
            "odd_girth": int(self.report.odd_girth_value),
            "distance_regular": bool(c.distance_regular) if c else None,
            "generalized_odd_graph": bool(c.generalized_odd_graph) if c else None,
            "alarm": bool(self.report.alarm),
        }


@dataclass
class ScanSummary:
    source: str
    backend: str
    jobs: int
    masks_total: int
    examined: int
    hypothesis_met: int
    certified: int
    alarms: int
    hits: list = field(default_factory=list)
    parse_failures: int = 0
    parse_errors: list = field(default_factory=list)
    elapsed_s: float = 0.0
    funnel: dict = field(default_factory=dict)  # n -> {stage: count}, enumerated scans only

    def to_dict(self):
        return {
            "source": self.source,
            "backend": self.backend,
            "jobs": self.jobs,
            "masks_total": self.masks_total,
            "examined": self.examined,
            "hypothesis_met": self.hypothesis_met,
            "certified": self.certified,
            "alarms": self.alarms,
            "parse_failures": self.parse_failures,
            "elapsed_s": self.elapsed_s,
            "funnel": [dict(n=n, **counts) for n, counts in sorted(self.funnel.items())],
            "hits": [h.to_dict() for h in self.hits],
        }


def screen_range(n, start, stop, funnel=None):
    """Screen masks [start, stop) on n vertices.

    Returns (examined, hits): examined counts connected graphs, hits is the
    ordered list of (mask, d, odd_girth) for graphs meeting the theorem
    hypothesis (finite odd girth >= 2d+1).  If funnel is given, a dict keyed
    by FUNNEL_STAGES, the range's counts are added to it.
    """
    examined = expanded = survivors = 0
    hits = []
    complete = (1 << (n * (n - 1) // 2)) - 1
    for lo in range(start, stop, MASK_BATCH):
        masks = np.arange(lo, min(lo + MASK_BATCH, stop), dtype=np.int64)
        masks = masks[mask_connected(n, masks)]
        examined += len(masks)
        masks = masks[mask_triangle_free(n, masks) | (masks == complete)]
        expanded += len(masks)
        batch = mask_distances(n, masks)
        girth = batch.odd_girth
        keep = np.isfinite(girth) & (girth >= 2 * batch.diameter + 1)
        survivors += int(keep.sum())
        if not keep.any():
            continue
        _, breaks = cluster_breaks(np.linalg.eigvalsh(batch.adj[keep]))
        d = breaks.sum(axis=1)
        met = girth[keep] >= 2 * d + 1
        for m, dd, og in zip(masks[keep][met], d[met], girth[keep][met]):
            hits.append((int(m), int(dd), int(og)))
    if funnel is not None:
        counts = (stop - start, examined, expanded, survivors, len(hits))
        for stage, count in zip(FUNNEL_STAGES, counts):
            funnel[stage] += count
    return examined, hits


def _screen_chunk(args):
    n, lo, hi = args
    funnel = dict.fromkeys(FUNNEL_STAGES, 0)
    _, hits = screen_range(n, lo, hi, funnel)
    return funnel, hits


def _cap_jobs(jobs):
    """Worker count: at least 1, at most the CPUs this process may run on."""
    return max(1, min(int(jobs), len(os.sched_getaffinity(0))))


def _chunks(total, pieces):
    step = -(-total // pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def scan_enumerated(n_max, jobs=1, tolerances=None):
    """Scan all labeled connected graphs on 1..n_max vertices (n_max <= 7).

    Every hypothesis-met graph found by the screen is re-verified with the
    full pipeline; a screen/pipeline disagreement raises, since it would mean
    the scan's fast path diverged from the thing it is supposed to scan for.
    """
    if not 1 <= n_max <= 7:
        raise GraphError("scan supports 1 <= n <= 7, got %d" % n_max)
    jobs = _cap_jobs(jobs)
    started = time.perf_counter()

    funnel = {}
    screened = []  # (n, mask, d, og), ordered by (n, mask)
    for n in range(1, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        counts = funnel[n] = dict.fromkeys(FUNNEL_STAGES, 0)
        if jobs > 1 and total >= _PARALLEL_FLOOR:
            work = [(n, lo, hi) for lo, hi in _chunks(total, jobs * 8)]
            with get_context("fork").Pool(jobs) as pool:
                results = pool.map(_screen_chunk, work)
            for part, hits in results:
                for stage in FUNNEL_STAGES:
                    counts[stage] += part[stage]
                screened.extend((n, m, d, og) for m, d, og in hits)
        else:
            _, hits = screen_range(n, 0, total, counts)
            screened.extend((n, m, d, og) for m, d, og in hits)

    hits = []
    alarms = certified = 0
    for n, mask, d, og in screened:
        g = graph_from_mask(n, mask)
        g6 = encode_graph6(g).decode("ascii")
        report = verify_theorem(g, tolerances, input_label=g6)
        if not report.hypothesis_met or report.spectrum.d != d or report.odd_girth_value != og:
            raise RuntimeError(
                "screen/pipeline disagreement on n=%d mask=%d: screen (d=%d, og=%d), "
                "pipeline (met=%s, d=%d, og=%s)"
                % (n, mask, d, og, report.hypothesis_met, report.spectrum.d,
                   report.odd_girth_value)
            )
        if report.alarm:
            alarms += 1
        elif report.conclusion.distance_regular:
            certified += 1
        hits.append(ScanHit(n=n, mask=mask, graph6=g6, report=report))

    return ScanSummary(
        source="n<=%d" % n_max,
        backend=BACKEND,
        jobs=jobs,
        masks_total=sum(c["masks"] for c in funnel.values()),
        examined=sum(c["connected"] for c in funnel.values()),
        hypothesis_met=len(hits),
        certified=certified,
        alarms=alarms,
        hits=hits,
        elapsed_s=time.perf_counter() - started,
        funnel=funnel,
    )


def _verify_line(args):
    idx, g, line, tolerances = args
    report = verify_theorem(g, tolerances, input_label=line)
    return idx, g.n, report


def scan_corpus(path, jobs=1, tolerances=None):
    """Verify every graph6 line in a file; parse failures are counted, not fatal."""
    jobs = _cap_jobs(jobs)
    started = time.perf_counter()
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [(i + 1, ln.decode("ascii", errors="replace")) for i, ln in enumerate(lines) if ln]

    parsed = []
    parse_errors = []
    for lineno, text in lines:
        try:
            g = parse_graph6(text)
        except GraphError as exc:
            parse_errors.append("line %d: %s" % (lineno, exc))
        else:
            parsed.append((lineno, g, text, tolerances))

    if jobs > 1 and len(parsed) > 1:
        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(_verify_line, parsed)
    else:
        results = [_verify_line(item) for item in parsed]
    results.sort(key=lambda r: r[0])

    hits = []
    alarms = certified = 0
    for lineno, n, report in results:
        if not report.hypothesis_met:
            continue
        if report.alarm:
            alarms += 1
        elif report.conclusion.distance_regular:
            certified += 1
        hits.append(ScanHit(n=n, mask=None, graph6=report.input, report=report))

    return ScanSummary(
        source=str(path),
        backend="pipeline",
        jobs=jobs,
        masks_total=len(lines),
        examined=len(parsed),
        hypothesis_met=len(hits),
        certified=certified,
        alarms=alarms,
        hits=hits,
        parse_failures=len(parse_errors),
        parse_errors=parse_errors,
        elapsed_s=time.perf_counter() - started,
    )

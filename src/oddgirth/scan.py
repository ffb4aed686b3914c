"""Counterexample scan: screen every small graph, fully verify the survivors.

The screen computes exactly the theorem hypothesis (connected, finite odd
girth >= 2d+1 where d+1 is the clustered distinct-eigenvalue count) for every
edge bitmask; the full certificate pipeline then runs on the handful of
hypothesis-met graphs.  A connected graph of diameter D has at least D+1
distinct eigenvalues, so d >= D and every hit has odd girth >= 2D+1.  A graph
with a triangle has odd girth 3, so it can be a hit only if D = 1, which
makes it the complete graph K_n.

The hypothesis needs a finite odd girth, so a bipartite graph, which has no
odd cycle, is never a hit.

The screen runs in four exact steps, each on fewer masks.  Connectivity,
triangles and bipartiteness come from graphs.mask_blocks: the masks with one
neighbour set S of the last vertex are one block, a graph on one vertex
fewer extended by S, and the three properties are read off a slice of that
smaller graph's table.  Only the connected masks that are triangle-free or
complete and not bipartite go to the distance layer, which tests odd girth
>= 2D+1; only those that pass have an adjacency matrix built and their
eigenvalues solved for.
"""

import itertools
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from .graphs import (
    GraphError,
    adjacency_batch,
    encode_graph6,
    graph_from_mask,
    mask_blocks,
    mask_distances,
    parse_graph6,
)
from .predistance import PredistanceError
from .spectral import NumericalError, cluster_breaks
from .verify import verify_theorem

# one screen; perfbench/run.py records this constant in its environment line
BACKEND = "python"

_PARALLEL_FLOOR = 1 << 16  # don't fork for ranges a single pass handles instantly

# the distance layer takes the masks kept from every block of mask_blocks in
# one aligned span of 2^15 masks: one block at n = 7 (some 400 masks kept),
# all 32 blocks at n = 6.  A call per block at n <= 6 made the n = 6 screen
# take 8-11 ms instead of 2.3-3.6 ms, the fixed cost of each expansion and
# eigensolve
_DISTANCE_SPAN_BITS = 15

# per-n screen counts, each a subset of the one before: triangle_free counts
# the connected masks that are triangle-free or complete, the expanded ones
# (those of them not bipartite) go through the distance layer, and every
# survivor of its exact prefilter costs one eigensolve
FUNNEL_STAGES = ("masks", "connected", "triangle_free", "expanded", "survivors", "hits")


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
    """What a scan examined and found; every count is read off its list."""

    source: str
    jobs: int
    masks_total: int
    examined: int
    hits: list
    parse_errors: list = field(default_factory=list)  # "line N: ...", corpus scans only
    verify_errors: list = field(default_factory=list)  # "line N: ...", corpus scans only
    elapsed_s: float = 0.0
    funnel: dict = field(default_factory=dict)  # n -> {stage: count}, enumerated scans only

    @property
    def hypothesis_met(self):
        return len(self.hits)

    @property
    def certified(self):
        return sum(not h.report.alarm and h.report.conclusion.distance_regular for h in self.hits)

    @property
    def alarms(self):
        return sum(h.report.alarm for h in self.hits)

    @property
    def parse_failures(self):
        return len(self.parse_errors)

    @property
    def verify_failures(self):
        return len(self.verify_errors)

    def to_dict(self):
        return {
            "source": self.source,
            "jobs": self.jobs,
            "masks_total": self.masks_total,
            "examined": self.examined,
            "hypothesis_met": self.hypothesis_met,
            "certified": self.certified,
            "alarms": self.alarms,
            "parse_failures": self.parse_failures,
            "verify_failures": self.verify_failures,
            "parse_errors": list(self.parse_errors),
            "verify_errors": list(self.verify_errors),
            "elapsed_s": self.elapsed_s,
            "funnel": [dict(n=n, **counts) for n, counts in sorted(self.funnel.items())],
            "hits": [h.to_dict() for h in self.hits],
        }


def screen_range(n, start, stop, funnel=None):
    """Screen masks [start, stop) on n vertices.

    Returns (examined, hits): examined counts connected graphs, hits is the
    ordered list of (mask, d, odd_girth) for graphs meeting the theorem
    hypothesis (finite odd girth >= 2d+1).  If funnel is given, a dict keyed
    by FUNNEL_STAGES, the range's counts are added to it.  The range is
    screened one block of mask_blocks at a time, and may start or end
    inside a block; the distance layer takes the blocks of a span of
    2^_DISTANCE_SPAN_BITS masks at once.
    """
    examined = triangle_free = expanded = survivors = 0
    hits = []
    complete = (1 << (n * (n - 1) // 2)) - 1
    blocks = mask_blocks(n, start, stop)
    for _, span in itertools.groupby(blocks, key=lambda block: block[0] >> _DISTANCE_SPAN_BITS):
        kept = []
        for lo, connected, free, bipartite in span:
            examined += int(np.count_nonzero(connected))
            keep = connected & free
            if lo <= complete < lo + len(keep):
                keep[complete - lo] = True  # K_n: its triangles leave D = 1
            triangle_free += int(np.count_nonzero(keep))
            keep &= ~bipartite
            expanded += int(np.count_nonzero(keep))
            kept.append(lo + np.flatnonzero(keep))
        masks = np.concatenate(kept)
        diameter, girth = mask_distances(n, masks)
        keep = girth >= 2 * diameter + 1  # no mask left is bipartite: girth is finite
        survivors += int(keep.sum())
        if not keep.any():
            continue
        masks, girth = masks[keep], girth[keep]
        _, breaks = cluster_breaks(np.linalg.eigvalsh(adjacency_batch(n, masks)))
        d = breaks.sum(axis=1)
        met = girth >= 2 * d + 1
        for m, dd, og in zip(masks[met], d[met], girth[met]):
            hits.append((int(m), int(dd), int(og)))
    if funnel is not None:
        counts = (stop - start, examined, triangle_free, expanded, survivors, len(hits))
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


def _map(fn, items, jobs):
    """fn(item) for each item, in order, yielded as each is done.

    In a fork pool of jobs workers when there is work to share, handing out
    chunks of the size Pool.map would choose.
    """
    if jobs > 1 and len(items) > 1:
        with get_context("fork").Pool(jobs) as pool:
            yield from pool.imap(fn, items, chunksize=-(-len(items) // (4 * jobs)))
    else:
        yield from map(fn, items)


def scan_enumerated(n_max, jobs=1):
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
        pieces = jobs * 8 if jobs > 1 and total >= _PARALLEL_FLOOR else 1
        counts = funnel[n] = dict.fromkeys(FUNNEL_STAGES, 0)
        work = [(n, lo, hi) for lo, hi in _chunks(total, pieces)]
        for part, hits in _map(_screen_chunk, work, jobs):
            for stage in FUNNEL_STAGES:
                counts[stage] += part[stage]
            screened.extend((n, m, d, og) for m, d, og in hits)

    hits = []
    for n, mask, d, og in screened:
        g = graph_from_mask(n, mask)
        g6 = encode_graph6(g).decode("ascii")
        report = verify_theorem(g, input_label=g6)
        if not report.hypothesis_met or report.spectrum.d != d or report.odd_girth_value != og:
            raise RuntimeError(
                "screen/pipeline disagreement on n=%d mask=%d: screen (d=%d, og=%d), "
                "pipeline (met=%s, d=%d, og=%s)"
                % (n, mask, d, og, report.hypothesis_met, report.spectrum.d,
                   report.odd_girth_value)
            )
        hits.append(ScanHit(n=n, mask=mask, graph6=g6, report=report))

    return ScanSummary(
        source="n<=%d" % n_max,
        jobs=jobs,
        masks_total=sum(c["masks"] for c in funnel.values()),
        examined=sum(c["connected"] for c in funnel.values()),
        hits=hits,
        elapsed_s=time.perf_counter() - started,
        funnel=funnel,
    )


def _verify_line(args):
    """(report, parse_error, verify_error) of one corpus line: a bad line fails alone.

    The line is parsed here, in whichever process verifies it, so no list
    of parsed graphs is built before the verification starts.  A graph too
    large for memory, in its parse or its verify, is a verify error.
    """
    lineno, data = args
    try:
        try:
            g = parse_graph6(data)  # the bytes as read, so a bad byte is named as analyze names it
        except GraphError as exc:
            return None, "line %d: %s" % (lineno, exc), None
        report = verify_theorem(g, input_label=data.decode("ascii"))  # a parsed line is ASCII
    except (PredistanceError, NumericalError, MemoryError) as exc:
        return None, None, "line %d: %s" % (lineno, str(exc) or "out of memory")
    return report, None, None


def scan_corpus(path, jobs=1):
    """Verify every graph6 line in a file.

    Parse failures and graphs whose verification broke down numerically
    (PredistanceError, NumericalError) or ran out of memory (MemoryError)
    are counted and reported by line number, not fatal: the other lines are
    still verified.
    """
    jobs = _cap_jobs(jobs)
    started = time.perf_counter()
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]

    hits = []
    parse_errors = []
    verify_errors = []
    for report, parse_error, verify_error in _map(_verify_line, lines, jobs):
        if parse_error is not None:
            parse_errors.append(parse_error)
        elif verify_error is not None:
            verify_errors.append(verify_error)
        elif report.hypothesis_met:
            hits.append(ScanHit(n=report.n, mask=None, graph6=report.input, report=report))

    return ScanSummary(
        source=str(path),
        jobs=jobs,
        masks_total=len(lines),
        examined=len(lines) - len(parse_errors),
        hits=hits,
        parse_errors=parse_errors,
        verify_errors=verify_errors,
        elapsed_s=time.perf_counter() - started,
    )

"""Counterexample scan: screen every small graph, fully verify one hit per class.

The screen computes exactly the theorem hypothesis (connected, finite odd
girth >= 2d+1 where d+1 is the distinct-eigenvalue count) for every edge
bitmask, with no eigenvalue solved for and no tolerance; the full
certificate pipeline then runs on the handful of hypothesis-met graphs, once
per isomorphism class.  A connected graph of
diameter D has at least D+1 distinct eigenvalues, so d >= D and every hit
has odd girth >= 2D+1.  A graph with a triangle has odd girth 3, so it can
be a hit only if D = 1, which makes it the complete graph K_n.

The hypothesis needs a finite odd girth, so a bipartite graph, which has no
odd cycle, is never a hit.

The screen runs in two exact steps.  Connectivity, triangles and
bipartiteness come from graphs.mask_blocks: the masks with one neighbour
set S of the last vertex are one block, a graph on one vertex fewer
extended by S, and the three properties are read off a slice of that
smaller graph's table.  Only the connected masks that are triangle-free or
complete and not bipartite are expanded.  Every property the rest of the
screen reads, the diameter D, the odd girth and d, is an isomorphism
invariant, so the last step runs once per class of the expanded masks, on
the first mask of each orbit under S_n (graphs.mask_orbit):
verify.check_hypothesis, one all-sources BFS and, where odd girth >= 2D+1,
the exact walk-count recurrence that the corpus scan and analyze decide d
with.  A connected graph that is not bipartite has a shortest odd cycle that
is isometric, so its odd girth is at most 2D+1: a survivor of the odd girth
>= 2D+1 prefilter has odd girth exactly 2D+1, and is a hit iff d <= D, that
is iff d = D.  The n <= 7 expanded masks, 25,981, are 23 classes (1, 1, 2,
3, 16 for n = 3..7), and their 2,237 survivors are 11.

The screen is labeled, so one graph is a hit once per labeling, n!/|Aut G|
times: the 377 hits on n <= 7 vertices are 7 graphs, K_3..K_7, C_5 (12
labelings) and C_7 (360).  Every quantity the pipeline certifies is
invariant under relabeling, so a hit is verified only if its mask is in the
orbit of no earlier hit; otherwise it shares that representative's report.
That report is built from the check_hypothesis record the screen decided
the representative's class with, so no class is decided twice.
The orbits partition the masks into the isomorphism classes, the
labeled/unlabeled relation of McKay ("Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  The sweep runs in one process, one screen_range
call per n, whose classes of hits are the ones verified.

A corpus scan has the same shape on graph6 lines.  A line is first
pre-screened by one BFS from vertex 0 and, on a non-complete graph, a
triangle test (graphs.quick_reject), which rejects it on the facts the sweep
rejects on: disconnected, bipartite, an edge inside a BFS level nearer than
the farthest, or a triangle.  The hypothesis of a line that passes is
decided exactly (verify.check_hypothesis, one all-sources expansion and, on
a prefilter graph, its walk counts), and only a line that meets it gets its
report (verify.theorem_report, from the same record), so a rejected line is
never eigensolved.  Only a corpus scan shares its lines among worker
processes (jobs), and only when they are large enough to pay for the pool
(POOL_FLOOR).
"""

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import (
    GraphError,
    _orbit,
    graph6_lines,
    graph_from_mask,
    mask_blocks,
    mask_graph6,
    parse_graph6,
    quick_reject,
)
from .predistance import PredistanceError
from .spectral import NumericalError, meets_prefilter
from .verify import check_hypothesis, theorem_report, verify_theorem

# one screen; perfbench/run.py records this constant in its environment line
BACKEND = "python"

# per-n scan counts, each a subset of the one before: triangle_free counts
# the connected masks that are triangle-free or complete, and the expanded
# ones (those of them not bipartite) have check_hypothesis run once per
# isomorphism class; the survivors are the expanded masks whose class meets
# its exact prefilter, odd girth >= 2D+1, and the hits those whose class has
# d = D.  The screen counts every stage up to hits; classes, the hit classes
# verified in full, is scan_enumerated's
FUNNEL_STAGES = ("masks", "connected", "triangle_free", "expanded", "survivors", "hits",
                 "classes")


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
    jobs: int  # the workers asked for, capped at the CPUs; a corpus below POOL_FLOOR runs in one
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


def _classes(n, masks):
    """(first mask, members) of each S_n orbit among ascending masks on n vertices.

    members is the index array of the masks in that mask's orbit (_orbit,
    int32 as the screen's masks are, so searchsorted copies neither), found
    by binary search, so masks must be sorted; the orbits come in the order
    of their first masks.
    """
    left = np.ones(len(masks), dtype=bool)
    while left.any():
        first = int(masks[left.argmax()])
        orbit = _orbit(n, first)
        at = np.searchsorted(masks, orbit)
        members = at[masks.take(at, mode="clip") == orbit]
        left[members] = False
        yield first, members


def screen_range(n, start, stop, funnel=None, hypotheses=None):
    """Screen masks [start, stop) on n vertices; no eigenvalue is solved for.

    Returns (examined, hits): examined counts connected graphs, hits is the
    ordered list of (mask, d, odd_girth) for graphs meeting the theorem
    hypothesis (finite odd girth >= 2d+1).  If funnel is given, a dict keyed
    by FUNNEL_STAGES, the range's counts of the screen's stages, all but
    classes, are added to it.  If hypotheses is given, a dict, each class of
    hits is stored in it under the class's first mask as a pair: the
    check_hypothesis record that decided it and the class's ascending masks,
    so that its report needs no second decision and no second orbit.  The
    range's flags come one block of mask_blocks at a time, and the range may
    start or end inside a block.  The masks kept, connected, triangle-free
    or complete, and not bipartite, are the expanded ones; every stage after
    that reads isomorphism invariants alone, so it runs once per class of
    the expanded masks (_classes): check_hypothesis on the class's first
    mask is the verdict of every mask in its orbit.  Its prefilter, odd
    girth >= 2D+1 for diameter D, makes the class's masks survivors; a
    survivor has odd girth exactly 2D+1, since a shortest odd cycle is
    isometric, and d >= D, so it is a hit iff d = D.
    """
    examined = triangle_free = survivors = 0
    kept = []
    complete = (1 << (n * (n - 1) // 2)) - 1
    for lo, connected, free, bipartite in mask_blocks(n, start, stop):
        examined += int(np.count_nonzero(connected))
        keep = connected & free
        if lo <= complete < lo + len(keep):
            keep[complete - lo] = True  # K_n: its triangles leave D = 1
        triangle_free += int(np.count_nonzero(keep))
        # int32 holds a mask on n <= 8 vertices; in int64 the n = 8 screen
        # (mask_blocks' guard raised) peaked at 133 MB RSS, against 114 MB.
        # keep > bipartite is keep & ~bipartite in one pass
        kept.append(np.flatnonzero(np.greater(keep, bipartite)).astype(np.int32) + lo)
    masks = np.concatenate(kept) if kept else np.zeros(0, dtype=np.int32)
    hits = []
    for first, members in _classes(n, masks):
        h = check_hypothesis(graph_from_mask(n, first))
        if meets_prefilter(h.dd):
            survivors += len(members)
        if h.met:
            members = masks[members]
            hits.extend((mask, h.dd.diameter, h.dd.odd_girth) for mask in members.tolist())
            if hypotheses is not None:
                hypotheses[first] = h, members
    hits.sort()
    if funnel is not None:
        counts = (stop - start, examined, triangle_free, len(masks), survivors, len(hits))
        for stage, count in zip(FUNNEL_STAGES[:-1], counts):
            funnel[stage] += count
    return examined, hits


# the summed n^2 of a corpus's lines above which a worker pool may pay for its
# fork.  Two workers against one on 2 CPUs, one BLAS thread, medians of 10
# alternating runs: below 10^6 no corpus of two lines or more gained more
# than 4% from the pool (60 x O_5, 9.5e5: 0.063 against 0.066 s), and most
# lost 1.3 to 3 times (8 x the folded 9-cube, 5.2e5: 0.030 against 0.018 s;
# 4 x O_6, 8.5e5: 0.040 against 0.020 s); above 10^6 it depends on the lines
# (80 x O_5, 1.3e6: 0.074 against 0.091 s; 8 x O_6, 1.7e6: 0.042 against
# 0.039 s; 4 x O_7, 1.2e7: 0.24 against 0.39 s).  quick_reject settles a
# line for far less a vertex pair, so a file of rejected lines lost at every
# size measured (8 of n = 1000, 8e6: 0.032 against 0.027 s)
POOL_FLOOR = 1_000_000


def _cap_jobs(jobs):
    """Worker count: at most the CPUs this process may run on; below 1 raises ValueError."""
    if jobs < 1:
        raise ValueError("--jobs must be at least 1, got %d" % jobs)
    return min(int(jobs), len(os.sched_getaffinity(0)))


def _map(fn, items, jobs):
    """fn(item) for each (lineno, line) of a graph6 file, in order, yielded as each is done.

    In a fork pool of jobs workers when there is work to share, handing out
    chunks of the size Pool.map would choose: two lines or more whose
    summed n^2 exceeds POOL_FLOOR, read off the lines' lengths (a line of n
    vertices holds n(n - 1) / 2 bits, 6 a byte, so about n^2 / 12 bytes),
    with no parse.  The n <= 7 sweep took 0.12-0.19 s in 16 forked chunks,
    each repeating the class step (226 check_hypothesis calls against 23),
    against 0.03-0.04 s in one process, so only corpus lines use it.
    """
    if jobs > 1 and len(items) > 1 and 12 * sum(len(line) for _, line in items) > POOL_FLOOR:
        # imported here: it costs about 10 ms at every import of this module
        from multiprocessing import get_context

        with get_context("fork").Pool(jobs) as pool:
            yield from pool.imap(fn, items, chunksize=-(-len(items) // (4 * jobs)))
    else:
        yield from map(fn, items)


def scan_enumerated(n_max, jobs=1):
    """Scan all labeled connected graphs on 1..n_max vertices (n_max <= 7), in this process.

    Each n is screened by one screen_range call over all its masks, and its
    hits are re-verified with the full pipeline once per isomorphism class,
    as the screen hands the classes back (screen_range's hypotheses): the
    class's first mask is verified from the check_hypothesis record the
    screen decided it with, so no class is decided twice, and counted in its
    funnel row's classes stage; every hit in the class shares its report,
    with its own graph6 as the input label.  Each label is read off the
    mask's bits (mask_graph6); only a class representative has a Graph
    built, in the screen and here.  Every quantity the report certifies is
    invariant under relabeling; a vertex named in a witness is the
    representative's.  Each hit's screen (d, odd girth) is compared with its
    class's report, once per class and screen pair, so 7 times for the 377
    hits of n <= 7, and a screen/pipeline disagreement raises, naming the
    first hit that shows it, since it would mean the scan's fast path
    diverged from the thing it is supposed to scan for.  jobs must be 1,
    which the summary reports; --jobs serves corpus scans (_map).
    """
    if not 1 <= n_max <= 7:
        raise GraphError("scan supports 1 <= n <= 7, got %d" % n_max)
    if jobs != 1:
        raise ValueError("the n <= %d sweep runs in one process; --jobs applies to --corpus"
                         % n_max)
    started = time.perf_counter()

    funnel = {}
    hits = []
    for n in range(1, n_max + 1):
        counts = funnel[n] = dict.fromkeys(FUNNEL_STAGES, 0)
        classes = {}
        _, found = screen_range(n, 0, 1 << (n * (n - 1) // 2), counts, classes)
        reports = {}
        for first, (record, members) in classes.items():
            report = verify_theorem(graph_from_mask(n, first), hypothesis=record)
            counts["classes"] += 1
            reports.update(dict.fromkeys(members.tolist(), (first, report)))
        agreed = set()  # (class, d, og) already compared with the class's report
        for mask, d, og in found:
            first, report = reports[mask]
            if (first, d, og) not in agreed:
                if (not report.hypothesis_met or report.spectrum.d != d
                        or report.odd_girth_value != og):
                    raise RuntimeError(
                        "screen/pipeline disagreement on n=%d mask=%d: screen (d=%d, og=%d), "
                        "pipeline (met=%s, d=%d, og=%s)"
                        % (n, mask, d, og, report.hypothesis_met, report.spectrum.d,
                           report.odd_girth_value)
                    )
                agreed.add((first, d, og))
            g6 = mask_graph6(n, mask).decode("ascii")
            hits.append(ScanHit(n=n, mask=mask, graph6=g6, report=replace(report, input=g6)))

    return ScanSummary(
        source="n<=%d" % n_max,
        jobs=1,
        masks_total=sum(c["masks"] for c in funnel.values()),
        examined=sum(c["connected"] for c in funnel.values()),
        hits=hits,
        elapsed_s=time.perf_counter() - started,
        funnel=funnel,
    )


def _verify_line(args):
    """(report, parse_error, verify_error) of one corpus line: a bad line fails alone.

    The line is parsed here, in whichever process verifies it, so no list
    of parsed graphs is built before the verification starts.  A line that
    quick_reject rejects gets no report and no all-sources distances.  The
    hypothesis of any other line is decided exactly (check_hypothesis); a
    line that does not meet it gets no report, and one that does gets
    theorem_report on the same record, so no line has more than one
    all-sources expansion and one walk count, and a rejected line no
    eigensolve.  A graph too large for memory, in any step or its parse, is
    a verify error, as is a numerical breakdown in either step after the
    pre-screen.
    """
    lineno, data = args
    try:
        try:
            g = parse_graph6(data)  # the bytes as read, so a bad byte is named as analyze names it
        except GraphError as exc:
            return None, "line %d: %s" % (lineno, exc), None
        if quick_reject(g):
            return None, None, None
        hypothesis = check_hypothesis(g)
        if not hypothesis.met:
            return None, None, None
        report = theorem_report(g, hypothesis, input_label=data.decode("ascii"))  # a parsed line is ASCII
    except (PredistanceError, NumericalError, MemoryError) as exc:
        return None, None, "line %d: %s" % (lineno, str(exc) or "out of memory")
    return report, None, None


def scan_corpus(path, jobs=1):
    """Screen each graph6 line of a file exactly; verify in full those that meet the hypothesis.

    Only hits are kept, so a line that does not meet the hypothesis gets no
    report, and one the pre-screen rejects (quick_reject) not even its
    all-sources distances (_verify_line).  Parse failures and graphs whose
    screen or report broke down numerically (PredistanceError,
    NumericalError) or ran out of memory (MemoryError) are counted and
    reported by line number, not fatal: the other lines are still verified.
    The screen has no tolerance, so a NumericalError can come only from the
    report of a line that meets the hypothesis.  The summary's jobs is the
    request capped at the CPUs, also when the lines are too small for a
    pool (_map) and run in this process.
    """
    jobs = _cap_jobs(jobs)
    started = time.perf_counter()
    with open(path, "rb") as fh:
        lines = graph6_lines(fh.read())

    hits = []
    parse_errors = []
    verify_errors = []
    for report, parse_error, verify_error in _map(_verify_line, lines, jobs):
        if parse_error is not None:
            parse_errors.append(parse_error)
        elif verify_error is not None:
            verify_errors.append(verify_error)
        elif report is not None:
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

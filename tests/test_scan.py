"""scan: the screen, exhaustive agreement with the pipeline, corpora."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oddgirth as og
from oddgirth import scan
from oddgirth.graphs import adjacency_batch, mask_blocks
from oddgirth.spectral import cluster_breaks

from conftest import mask_distance_oracle, screen_regular_range


def test_screen_counts_small():
    examined, hits = scan.screen_range(3, 0, 8)
    assert examined == 4  # connected graphs on 3 labeled vertices
    assert [(m, d, g) for m, d, g in hits] == [(7, 1, 3)]  # K_3 only


def test_screen_matches_pipeline_exhaustively(mask_oracle):
    # for every connected graph on <= 6 vertices the screen's hypothesis
    # verdict, eigenvalue count and odd girth must match the full pipeline;
    # at n = 6 the screen runs check_hypothesis on the 3 classes of the 541
    # masks it expands, of 26,704.  The pipeline's eigenvalue counts are
    # solved for all graphs of an n at once and split by cluster_breaks, the
    # rule spectrum() applies to each graph; its odd girths are the trace
    # definition's, held per mask by mask_oracle
    for n in range(1, 7):
        total = 1 << (n * (n - 1) // 2)
        _, hits = scan.screen_range(n, 0, total)
        by_mask = {m: (d, g) for m, d, g in hits}
        graphs = list(og.enumerate_connected(n))
        _, breaks = cluster_breaks(np.linalg.eigvalsh(np.stack([g.adj for g in graphs])))
        for g, d in zip(graphs, breaks.sum(axis=1)):
            mask = og.graph_mask(g)
            girth = mask_oracle[n]["odd_girth"][mask]
            met = math.isfinite(girth) and girth >= 2 * d + 1
            assert (mask in by_mask) == met, (n, mask)
            if met:
                assert by_mask[mask] == (d, girth), (n, mask)


def test_screen_range_split_anywhere():
    # screen_range takes any range [start, stop), as perfbench traces it,
    # even one that starts or ends inside a block of one neighbour set of the
    # last vertex (2^15 masks at n = 7): pieces cut at such offsets sum to
    # exactly the counts and hits of one call over the whole range
    total = 1 << 21
    whole = dict.fromkeys(scan.FUNNEL_STAGES, 0)
    examined, hits = scan.screen_range(7, 0, total, whole)
    cuts = [0, 12345, 32769, (1 << 20) - 7, (1 << 20) + 1, total]
    parts = dict.fromkeys(scan.FUNNEL_STAGES, 0)
    examined_parts, hits_parts = 0, []
    for lo, hi in zip(cuts, cuts[1:]):
        e, h = scan.screen_range(7, lo, hi, parts)
        examined_parts += e
        hits_parts += h
    assert (examined_parts, hits_parts, parts) == (examined, hits, whole)
    assert whole["masks"] == total and whole["connected"] == examined == 1866256
    assert whole["expanded"] == 25981 and len(hits) == whole["hits"] == 361
    # an empty range, and one inside a single block
    assert scan.screen_range(7, 99, 99) == (0, [])
    assert scan.screen_range(7, total - 1, total)[1] == [(total - 1, 1, 3)]  # K_7


@functools.lru_cache(maxsize=None)
def _expanded(n):
    """The ascending masks the n-vertex screen expands, read-only.

    The screen's flag step, restated: connected, triangle-free or complete,
    and not bipartite.
    """
    complete = (1 << (n * (n - 1) // 2)) - 1
    kept = []
    for lo, connected, free, bipartite in mask_blocks(n, 0, complete + 1):
        keep = connected & free
        if lo <= complete < lo + len(keep):
            keep[complete - lo] = True
        kept.append(lo + np.flatnonzero(keep & ~bipartite))
    masks = np.concatenate(kept)
    masks.setflags(write=False)
    return masks


@functools.lru_cache(maxsize=None)
def _survivors(n):
    """(masks, diameter, odd girth) of the expanded masks with odd girth >= 2D+1, read-only.

    The distances are mask_distance_oracle's, which shares no code with the
    package.
    """
    masks = _expanded(n)
    oracle = mask_distance_oracle(n, masks)
    diameter, girth = oracle["diameter"], oracle["odd_girth"]
    keep = girth >= 2 * diameter + 1
    out = masks[keep], diameter[keep], girth[keep]
    for array in out:
        array.setflags(write=False)
    return out


def test_exact_verdict_matches_eigenvalue_oracle_on_every_survivor():
    # every survivor of the n <= 7 prefilter has odd girth exactly 2D+1, and
    # the screen's exact d = D verdict is the clustered eigvalsh count's on
    # each: 2,237 survivors (1 + 1 + 13 + 181 + 2,041), of which 377 are met
    total = met_total = 0
    for n in range(1, 8):
        masks, diameter, girth = _survivors(n)
        assert (girth == 2 * diameter + 1).all(), n
        _, breaks = cluster_breaks(np.linalg.eigvalsh(adjacency_batch(n, masks)))
        d = breaks.sum(axis=1)
        assert (d >= diameter).all(), n
        hits = scan.screen_range(n, 0, 1 << (n * (n - 1) // 2))[1]
        met = np.isin(masks, [m for m, _, _ in hits])
        assert met.tolist() == (d == diameter).tolist(), n
        want = [(int(m), int(D), int(og)) for m, D, og in zip(masks[met], diameter[met], girth[met])]
        assert hits == want, n
        total += len(masks)
        met_total += int(met.sum())
    assert (total, met_total) == (2237, 377)


def test_theta_graph_survives_the_prefilter_but_is_no_hit():
    # C_5 with a sixth vertex joined to two opposite cycle vertices: D = 2,
    # odd girth 5, yet six distinct eigenvalues (d = 5).  Its labelings 3308
    # and 3436 survive the prefilter, and the screen's class step rejects
    # both, as it rejects every n <= 7 survivor of diameter 2
    theta = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2)]
    assert og.graph_mask(og.graph_from_edges(6, theta)) in og.mask_orbit(6, 3308)
    assert 3436 in og.mask_orbit(6, 3308)
    masks = np.array([3308, 3436], dtype=np.int64)
    oracle = mask_distance_oracle(6, masks)
    assert oracle["diameter"].tolist() == [2, 2] and oracle["odd_girth"].tolist() == [5, 5]
    assert [og.spectrum(og.graph_from_mask(6, int(m))).d for m in masks] == [5, 5]
    assert np.isin(masks, _survivors(6)[0]).all()
    hits = scan.screen_range(6, 0, 2**15)[1]
    assert not {3308, 3436} & {m for m, _, _ in hits}
    for n in (6, 7):
        hits = scan.screen_range(n, 0, 1 << (n * (n - 1) // 2))[1]
        assert (_survivors(n)[1] == 2).any() and all(D != 2 for _, D, _ in hits), n


def test_screen_decides_each_expanded_class_once(monkeypatch):
    # check_hypothesis runs once per isomorphism class of the expanded masks
    # of an n, on the class's first expanded mask, and its verdict covers
    # every expanded mask in that class's orbit: the orbits of the
    # representatives partition the expanded masks
    decided = []
    real_check = scan.check_hypothesis

    def check(g):
        decided.append(og.graph_mask(g))
        return real_check(g)

    monkeypatch.setattr(scan, "check_hypothesis", check)
    calls = {}
    for n in range(1, 8):
        decided.clear()
        scan.screen_range(n, 0, 1 << (n * (n - 1) // 2))
        masks = _expanded(n)
        owners = np.zeros(len(masks), dtype=np.int64)
        orbits = [og.mask_orbit(n, rep) for rep in decided]
        for i, (rep, orbit) in enumerate(zip(decided, orbits)):
            members = np.isin(masks, orbit)
            assert rep == masks[members].min(), (n, rep)
            assert not any(np.isin(decided[:i], orbit)), (n, rep)  # pairwise non-isomorphic
            owners += members
        assert (owners == 1).all(), n
        if decided:
            calls[n] = len(decided)
    assert calls == {3: 1, 4: 1, 5: 2, 6: 3, 7: 16}


def test_class_members_by_binary_search_match_isin():
    # _classes finds each orbit's members by binary search in the ascending
    # masks: the same positions as an isin test, on every expanded set with
    # n <= 7 and on a range [lo, hi) of n = 7 that cuts C_7's orbit, whose
    # first mask is then no representative of the whole class
    c7 = og.mask_orbit(7, og.graph_mask(og.generate_family("cycle", [7])))
    lo, hi = int(c7[100]), int(c7[200])
    expanded = _expanded(7)
    cut = expanded[(expanded >= lo) & (expanded < hi)]
    cases = [(n, _expanded(n)) for n in range(1, 8)] + [(7, cut)]
    for n, masks in cases:
        owners = np.zeros(len(masks), dtype=np.int64)
        for first, members in scan._classes(n, masks):
            want = np.flatnonzero(np.isin(masks, og.mask_orbit(n, first)))
            assert np.array_equal(members, want), (n, first)
            assert first == masks[members[0]], (n, first)
            owners[members] += 1
        assert (owners == 1).all(), n
    # in the cut range C_7's class starts at lo and holds its 100 masks there
    assert np.array_equal(cut[dict(scan._classes(7, cut))[lo]], c7[100:200])
    # the range's screen keeps exactly the whole screen's hits inside it
    hits = scan.screen_range(7, 0, 1 << 21)[1]
    assert scan.screen_range(7, lo, hi)[1] == [h for h in hits if lo <= h[0] < hi]


def test_screen_solves_no_eigenvalues(monkeypatch):
    # the n = 7 screen finds its 361 hits with numpy's eigensolvers disabled
    def refuse(*args, **kwargs):
        raise AssertionError("the screen called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    examined, hits = scan.screen_range(7, 0, 2**21)
    assert examined == 1866256 and len(hits) == 361
    assert sorted({(d, og) for _, d, og in hits}) == [(1, 3), (3, 7)]


def test_screen_regular_range_counts():
    # connected regular graphs on n labeled vertices
    want = {1: 1, 2: 1, 3: 1, 4: 4, 5: 13, 6: 146}
    for n, count in want.items():
        total = 1 << (n * (n - 1) // 2)
        masks = screen_regular_range(n, 0, total)
        assert len(masks) == count
        for mask in masks[:5]:
            g = og.graph_from_mask(n, mask)
            assert g.is_regular()


def test_screen_regular_range_without_regular_masks():
    # masks 1 and 2 on 7 vertices are single edges: no connected mask is
    # left for the degree test
    assert screen_regular_range(7, 1, 3) == []


def test_scan_funnel_totals():
    serial = scan.scan_enumerated(6)
    assert sorted(serial.funnel) == [1, 2, 3, 4, 5, 6]
    totals = {stage: sum(c[stage] for c in serial.funnel.values()) for stage in scan.FUNNEL_STAGES}
    assert totals["masks"] == serial.masks_total == 33867
    assert totals["connected"] == serial.examined == 27476
    assert totals["hits"] == serial.hypothesis_met == 16
    assert totals["triangle_free"] == 3806  # connected and triangle-free, or complete
    assert totals["expanded"] == 556  # of those, not bipartite: 0, 0, 1, 1, 13, 541
    assert totals["survivors"] == 196  # odd girth >= 2D+1: 0, 0, 1, 1, 13, 181
    for counts in serial.funnel.values():
        values = [counts[stage] for stage in scan.FUNNEL_STAGES]
        assert values == sorted(values, reverse=True)
    assert serial.elapsed_s > 0
    doc = serial.to_dict()
    assert doc["funnel"][-1] == {"n": 6, "masks": 32768, "connected": 26704,
                                 "triangle_free": 3572, "expanded": 541,
                                 "survivors": 181, "hits": 1, "classes": 1}


def test_screen_survivors_match_oracle():
    # the survivors stage against the oracle's count of expanded masks with
    # odd girth >= 2D+1, for every n <= 7
    counts = []
    for n in range(1, 8):
        funnel = dict.fromkeys(scan.FUNNEL_STAGES, 0)
        scan.screen_range(n, 0, 1 << (n * (n - 1) // 2), funnel)
        assert funnel["survivors"] == len(_survivors(n)[0]), n
        counts.append(funnel["survivors"])
    assert counts == [0, 0, 1, 1, 13, 181, 2041]


def test_scan_enumerated_five():
    summary = scan.scan_enumerated(5)
    assert summary.masks_total == 1 + 2 + 8 + 64 + 1024
    assert summary.examined == 1 + 1 + 4 + 38 + 728
    assert summary.hypothesis_met == 15  # K_3, K_4, K_5 and the 12 labeled C_5
    assert summary.certified == 15
    assert summary.alarms == 0
    by_n = {}
    for h in summary.hits:
        by_n[h.n] = by_n.get(h.n, 0) + 1
        assert h.report.conclusion.generalized_odd_graph
    assert by_n == {3: 1, 4: 1, 5: 13}
    doc = summary.to_dict()
    assert doc["hypothesis_met"] == 15 and len(doc["hits"]) == 15
    assert {"graph6", "n", "d", "odd_girth", "distance_regular",
            "generalized_odd_graph", "alarm"} == set(doc["hits"][0])


def test_scan_verifies_one_hit_per_class(monkeypatch):
    # the 377 labeled hits of n <= 7 are 7 graphs, K_3..K_7, C_5 and C_7:
    # verify_theorem runs once per class, and each hit's report, shared with
    # its class representative, is what the pipeline gives that labeling
    calls = []
    real_verify = scan.verify_theorem

    def verify(g, *args, **kwargs):
        calls.append(g.n)
        return real_verify(g, *args, **kwargs)

    built = []
    real_graph = scan.graph_from_mask

    def graph(n, mask):
        built.append((n, mask))
        return real_graph(n, mask)

    monkeypatch.setattr(scan, "verify_theorem", verify)
    monkeypatch.setattr(scan, "graph_from_mask", graph)
    summary = scan.scan_enumerated(7)
    assert calls == [3, 4, 5, 5, 6, 7, 7]
    # n by n, the screen builds one Graph per expanded class (1, 1, 2, 3, 16
    # for n = 3..7), then the verification one per hit class (1, 1, 2, 1, 2):
    # no other expanded mask and none of the other 370 hits has a Graph built
    screen = {3: 1, 4: 1, 5: 2, 6: 3, 7: 16}
    assert [n for n, _ in built] == [n for n in screen for _ in range(screen[n] + calls.count(n))]
    for n, mask in built:
        masks = _expanded(n)
        assert mask == masks[np.isin(masks, og.mask_orbit(n, mask))].min(), (n, mask)
    assert [row["classes"] for row in summary.to_dict()["funnel"]] == [0, 0, 1, 1, 2, 1, 2]
    assert summary.funnel[5]["hits"] == 13 and summary.funnel[7]["hits"] == 361
    assert summary.hypothesis_met == summary.certified == 377
    for hit in summary.hits:
        report = real_verify(og.graph_from_mask(hit.n, hit.mask), input_label=hit.graph6)
        assert report.to_dict() == hit.report.to_dict(), (hit.n, hit.mask)
        assert hit.report.input == hit.graph6


def test_scan_decides_each_hit_class_once(monkeypatch):
    # the n <= 7 sweep decides the hypothesis once per class of the
    # expanded masks (1, 1, 2, 3, 16 for n = 3..7), and its 7 hit classes
    # are reported from those records: verify_theorem decides nothing again
    screened, repeated = [], []
    real_check = scan.check_hypothesis

    def screen_check(g):
        screened.append(g.n)
        return real_check(g)

    def report_check(g):
        repeated.append(g.n)
        return real_check(g)

    monkeypatch.setattr(scan, "check_hypothesis", screen_check)
    monkeypatch.setattr(og.verify, "check_hypothesis", report_check)
    scan.scan_enumerated(7)
    assert screened == [3, 4, 5, 5, 6, 6, 6] + [7] * 16
    assert repeated == []


def test_scan_checks_every_relabeled_hit_against_the_screen(monkeypatch):
    # the last C_7 labeling in mask order is not its class's representative,
    # the first: it shares the representative's report, yet its own screen
    # (d, odd girth) is still compared with it, so a wrong d from the screen
    # raises, naming that mask.  The screen's hit classes, each its record
    # and masks, are what the sweep verifies, so they pass through unchanged
    real_screen = scan.screen_range
    bad = []

    def screen(n, start, stop, funnel=None, hypotheses=None):
        assert hypotheses == {}
        examined, hits = real_screen(n, start, stop, funnel, hypotheses)
        cycles = [m for m, d, _ in hits if n == 7 and d == 3]
        if cycles:
            assert len(cycles) == 360  # one call screens every n = 7 mask
            bad.append(max(cycles))
            hits = [(m, d + (m == bad[0]), girth) for m, d, girth in hits]
        return examined, hits

    monkeypatch.setattr(scan, "screen_range", screen)
    with pytest.raises(RuntimeError) as excinfo:
        scan.scan_enumerated(7)
    assert "disagreement on n=7 mask=%d: screen (d=4, og=7)" % bad[0] in str(excinfo.value)


def _fresh_python(probe):
    """The stripped standard output of probe run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(og.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.strip()


def test_orbit_tables_built_on_first_use():
    # importing the package builds no orbit table, and scan_enumerated(5),
    # the benchmark's warm-up, builds those of its expanded masks' n alone: n = 7's is
    # built in the first n <= 7 scan, not at set-up.  In a fresh process,
    # since this one may have built any
    probe = (
        "from oddgirth import graphs, scan\n"
        "info = graphs._orbit_table.cache_info\n"
        "assert info().currsize == 0\n"
        "scan.scan_enumerated(5)\n"
        "cached = []\n"
        "for n in range(1, 9):\n"
        "    misses = info().misses\n"
        "    graphs._orbit_table(n)\n"
        "    if info().misses == misses:\n"
        "        cached.append(n)\n"
        "print(cached)\n"
    )
    assert _fresh_python(probe) == "[3, 4, 5]"


def test_package_import_leaves_multiprocessing_out():
    # the pool's module is imported only when a pool starts, so neither a
    # fresh import of the package and its scan module nor a sweep, which
    # starts no pool, loads it
    probe = ("import sys, oddgirth, oddgirth.scan\noddgirth.scan.scan_enumerated(5)\n"
             "print('multiprocessing' in sys.modules)\n")
    assert _fresh_python(probe) == "False"


def test_scan_enumerated_rejects_bad_n():
    with pytest.raises(og.GraphError):
        scan.scan_enumerated(8)
    with pytest.raises(og.GraphError):
        scan.scan_enumerated(0)


@pytest.fixture
def pooled(monkeypatch):
    """A corpus scan with jobs > 1 forks its pool however small its lines are."""
    monkeypatch.setattr(scan, "POOL_FLOOR", 0)


@pytest.mark.usefixtures("pooled")
def test_scan_corpus(tmp_path, petersen, prism):
    path = tmp_path / "corpus.g6"
    lines = [
        og.encode_graph6(petersen).decode(),
        og.encode_graph6(prism).decode(),
        "not graph6 at all!",
    ]
    path.write_text("\n".join(lines) + "\n")
    summary = scan.scan_corpus(path)
    assert summary.examined == 2
    assert summary.hypothesis_met == 1  # the prism's odd girth is too small
    assert summary.certified == 1 and summary.alarms == 0
    assert summary.parse_failures == 1
    assert summary.parse_errors[0].startswith("line 3:")
    assert summary.hits[0].graph6 == lines[0]

    pooled = scan.scan_corpus(path, jobs=2)
    assert pooled.examined == 2 and pooled.hypothesis_met == 1


@pytest.mark.usefixtures("pooled")
def test_scan_corpus_counts_verify_failures(tmp_path, petersen, break_verify):
    # C_9's verify breaks down; the run goes on and Petersen, on the line
    # before, is still certified
    path = tmp_path / "corpus.g6"
    c9 = og.generate_family("cycle", [9])
    break_verify(c9)
    path.write_bytes(og.encode_graph6(petersen) + b"\n" + og.encode_graph6(c9) + b"\n")
    for jobs in (1, 2):
        summary = scan.scan_corpus(path, jobs=jobs)
        assert summary.examined == 2 and summary.hypothesis_met == 1, jobs
        assert summary.certified == 1 and summary.alarms == 0, jobs
        assert summary.hits[0].graph6 == og.encode_graph6(petersen).decode(), jobs
        assert summary.verify_failures == 1, jobs
        assert summary.verify_errors[0].startswith("line 2: eigensolver failed"), jobs
        doc = summary.to_dict()
        assert doc["verify_failures"] == 1 and doc["verify_errors"] == summary.verify_errors


@pytest.mark.usefixtures("pooled")
def test_scan_corpus_same_summary_for_any_jobs(tmp_path, petersen, prism, c5, break_verify):
    # hits and errors keep file order whether the lines are verified in this
    # process or in a pool
    c9 = og.generate_family("cycle", [9])
    break_verify(c9)
    graphs = (c5, prism, None, c9, petersen,
              og.generate_family("complete", [4]))
    lines = [og.encode_graph6(g).decode() if g else "not graph6" for g in graphs]
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    docs = [scan.scan_corpus(path, jobs=jobs).to_dict() for jobs in (1, 2)]
    for doc in docs:
        del doc["jobs"], doc["elapsed_s"]
    assert docs[0] == docs[1]
    assert [h["graph6"] for h in docs[0]["hits"]] == [lines[0], lines[4], lines[5]]
    assert docs[0]["parse_errors"][0].startswith("line 3:")
    assert docs[0]["verify_errors"][0].startswith("line 4: eigensolver failed")


@pytest.mark.usefixtures("pooled")
def test_scan_corpus_reports_a_graph_too_large_for_memory(tmp_path, monkeypatch, petersen):
    # a MemoryError in one line's parse (line 2) or distance layer (line 4)
    # is that line's verify error, and Petersen on lines 1 and 3 is still
    # certified; the errors are raised on purpose, so nothing large is
    # allocated
    c7, c9 = og.generate_family("cycle", [7]), og.generate_family("cycle", [9])
    huge = "Unable to allocate 1.68 GiB for an array with shape (15000, 15000)"
    real_parse, real_check = scan.parse_graph6, scan.check_hypothesis

    def parse(data):
        if data == og.encode_graph6(c7):
            raise MemoryError()
        return real_parse(data)

    def check(g):
        if g == c9:
            raise MemoryError(huge)
        return real_check(g)

    monkeypatch.setattr(scan, "parse_graph6", parse)
    monkeypatch.setattr(scan, "check_hypothesis", check)
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join(og.encode_graph6(g) for g in (petersen, c7, petersen, c9)))
    for jobs in (1, 2):
        summary = scan.scan_corpus(path, jobs=jobs)
        assert summary.verify_errors == ["line 2: out of memory", "line 4: " + huge], jobs
        assert summary.parse_failures == 0 and summary.examined == 4, jobs
        assert summary.certified == 2 and summary.alarms == 0, jobs


def test_jobs_capped_at_affinity(tmp_path, petersen):
    cpus = len(os.sched_getaffinity(0))
    # the sweep runs in one process: it takes no worker count but 1
    with pytest.raises(ValueError, match="--corpus"):
        scan.scan_enumerated(3, jobs=2)
    # a single corpus line is verified in this process
    path = tmp_path / "one.g6"
    path.write_bytes(og.encode_graph6(petersen) + b"\n")
    assert scan.scan_corpus(path, jobs=10**6).jobs == cpus
    with pytest.raises(ValueError, match="at least 1"):
        scan.scan_corpus(path, jobs=0)


def test_scan_corpus_forks_only_large_corpora(tmp_path, monkeypatch, petersen):
    # a pool pays for its fork only on large lines: a small file is verified
    # in this process with --jobs 2, and 4 x O_7 (summed n^2 about 1.2e7)
    # still asks for the pool, whose start is patched to raise
    import multiprocessing

    class Forked(Exception):
        pass

    def get_context(method):
        raise Forked(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    small = tmp_path / "small.g6"
    small.write_bytes(b"\n".join([og.encode_graph6(petersen)] * 60))
    assert 12 * len(small.read_bytes()) < scan.POOL_FLOOR
    summary = scan.scan_corpus(small, jobs=2)
    # jobs reports the request capped at the CPUs, not the one process used
    assert summary.jobs == min(2, len(os.sched_getaffinity(0))) and summary.certified == 60
    large = tmp_path / "large.g6"
    large.write_bytes(b"\n".join([og.encode_graph6(og.generate_family("odd", [7]))] * 4))
    with pytest.raises(Forked, match="fork"):
        scan.scan_corpus(large, jobs=2)


@pytest.mark.usefixtures("pooled")
def test_scan_corpus_parses_each_line_once(tmp_path, monkeypatch, petersen, prism):
    # each line is parsed where it is verified, in a pool worker when jobs > 1,
    # so the calls are counted in a file that every process appends to
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join(og.encode_graph6(g) for g in (petersen, prism, petersen)))
    log = tmp_path / "parses"

    def counting_parse(text):
        with open(log, "ab") as fh:
            fh.write(bytes(text) + b"\n")
        return og.parse_graph6(text)

    monkeypatch.setattr(scan, "parse_graph6", counting_parse)
    for jobs in (1, 2):
        log.write_bytes(b"")
        summary = scan.scan_corpus(path, jobs=jobs)
        assert len(log.read_bytes().splitlines()) == 3, jobs
        assert summary.examined == 3 and summary.certified == 2, jobs


def test_scan_corpus_streams_lines(tmp_path, monkeypatch, petersen, prism):
    # in one process each line is parsed, pre-screened, screened and, if it
    # meets the hypothesis, reported before the next is parsed: no list of
    # every parsed graph is held first, and the prism, rejected by the
    # pre-screen, gets neither the screen nor a report
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join([og.encode_graph6(petersen), b"!bad", og.encode_graph6(prism)]))
    steps = []
    real_parse, real_reject, real_check, real_report = (
        scan.parse_graph6, scan.quick_reject, scan.check_hypothesis, scan.theorem_report)

    def parse(text):
        steps.append("parse")
        return real_parse(text)

    def reject(g):
        steps.append("pre-screen")
        return real_reject(g)

    def check(g):
        steps.append("screen")
        return real_check(g)

    def report(g, *args, **kwargs):
        steps.append("report")
        return real_report(g, *args, **kwargs)

    monkeypatch.setattr(scan, "parse_graph6", parse)
    monkeypatch.setattr(scan, "quick_reject", reject)
    monkeypatch.setattr(scan, "check_hypothesis", check)
    monkeypatch.setattr(scan, "theorem_report", report)
    summary = scan.scan_corpus(path)
    assert steps == ["parse", "pre-screen", "screen", "report", "parse", "parse", "pre-screen"]
    assert summary.examined == 2 and summary.hypothesis_met == 1
    assert [e[:7] for e in summary.parse_errors] == ["line 2:"]


@pytest.mark.parametrize("fault", [MemoryError("out of room on purpose"),
                                   og.PredistanceError("recurrence broken on purpose"),
                                   og.NumericalError("screen broken on purpose")],
                         ids=lambda exc: type(exc).__name__)
@pytest.mark.usefixtures("pooled")
def test_scan_corpus_screen_fault_fails_its_line(tmp_path, monkeypatch, petersen, c5, fault):
    # a fault raised while C_9's hypothesis is decided is line 2's verify
    # error; C_5 and Petersen on the lines around it are still certified
    c9 = og.generate_family("cycle", [9])
    real_check = scan.check_hypothesis

    def check(g):
        if g == c9:
            raise fault
        return real_check(g)

    monkeypatch.setattr(scan, "check_hypothesis", check)
    _assert_line_2_fails_alone(tmp_path, petersen, c5, c9, fault)


@pytest.mark.usefixtures("pooled")
def test_scan_corpus_pre_screen_fault_fails_its_line(tmp_path, monkeypatch, petersen, c5):
    # a graph too large for memory in the pre-screen of C_9 (quick_reject)
    # is line 2's verify error alone, as in the screen after it
    c9 = og.generate_family("cycle", [9])
    fault = MemoryError("out of room in the pre-screen on purpose")
    real_reject = scan.quick_reject

    def reject(g):
        if g == c9:
            raise fault
        return real_reject(g)

    monkeypatch.setattr(scan, "quick_reject", reject)
    _assert_line_2_fails_alone(tmp_path, petersen, c5, c9, fault)


def _assert_line_2_fails_alone(tmp_path, petersen, c5, c9, fault):
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join(og.encode_graph6(g) for g in (c5, c9, petersen)))
    for jobs in (1, 2):
        summary = scan.scan_corpus(path, jobs=jobs)
        assert summary.verify_errors == ["line 2: %s" % fault], jobs
        assert summary.examined == 3 and summary.parse_failures == 0, jobs
        assert summary.certified == 2 and summary.alarms == 0, jobs
        assert [h.graph6 for h in summary.hits] == [og.encode_graph6(g).decode()
                                                    for g in (c5, petersen)], jobs


def test_scan_corpus_rejected_lines_solve_no_eigenvalue(tmp_path, monkeypatch, petersen, prism):
    # a line that fails the hypothesis gets no report, so no spectrum: with
    # every eigensolve of a matrix the size of a corpus graph refused, the
    # four rejected lines and Petersen still scan; Petersen's report solves
    # only its 3 x 3 Jacobi matrix
    cube = og.graph_from_edges(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3)
                                   if u < u ^ (1 << b)])  # bipartite
    paw = og.graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])  # a triangle, not complete
    z = np.zeros_like(petersen.adj)
    union = og.Graph(20, np.block([[petersen.adj, z], [z, petersen.adj]]))  # disconnected
    graphs = (cube, paw, union, prism, petersen)
    sizes = {g.n for g in graphs}

    def refuse(solver):
        def solve(a, *args, **kwargs):
            if len(a) in sizes:
                raise AssertionError("a %d x %d matrix was eigensolved" % (len(a), len(a)))
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", refuse(np.linalg.eigh))
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join(og.encode_graph6(g) for g in graphs))
    summary = scan.scan_corpus(path)
    assert summary.examined == 5 and summary.hypothesis_met == 1
    assert summary.certified == 1 and summary.alarms == 0
    assert summary.verify_failures == 0 and summary.parse_failures == 0
    assert summary.hits[0].graph6 == og.encode_graph6(petersen).decode()


def _mixed_corpus(seed):
    """A seeded graph6 corpus: family members, disjoint unions, random bipartite graphs and
    random graphs with a triangle, each relabeled."""
    rng = np.random.default_rng(seed)

    def relabel(adj):
        perm = rng.permutation(len(adj))
        return og.Graph(len(adj), adj[np.ix_(perm, perm)])

    def random_graph(n, bipartite):
        pairs = ([(u, v) for u in range(n // 2) for v in range(n // 2, n)] if bipartite
                 else [(u, v) for v in range(1, n) for u in range(v)])
        adj = np.zeros((n, n), dtype=np.int64)
        for i in rng.choice(len(pairs), size=2 * n, replace=False):
            u, v = pairs[i]
            adj[u, v] = adj[v, u] = 1
        if not bipartite:
            adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = adj[0, 2] = adj[2, 0] = 1
        return relabel(adj)

    families = [("petersen", ()), ("odd", (4,)), ("folded_cube", (5,)), ("cycle", (9,)),
                ("cycle", (21,)), ("complete", (6,)), ("prism", ())]
    graphs = [relabel(og.generate_family(f, p).adj) for f, p in families]
    # C_5 with a vertex on 0 and 2: it meets the prefilter (odd girth 5 = 2D + 1)
    # and has its walks counted, but d = 5
    graphs.append(relabel(og.graph_from_edges(6, [(i, (i + 1) % 5) for i in range(5)]
                                              + [(5, 0), (5, 2)]).adj))
    for f, p in (("petersen", ()), ("cycle", (9,))):
        a = og.generate_family(f, p).adj
        z = np.zeros_like(a)
        graphs.append(relabel(np.block([[a, z], [z, a]])))
    for n in (10, 14, 18, 22, 26, 30):
        graphs.append(random_graph(n, bipartite=True))
        graphs.append(random_graph(n, bipartite=False))
    return [graphs[i] for i in rng.permutation(len(graphs))]


def test_scan_corpus_fast_path_matches_verify_theorem(tmp_path, monkeypatch):
    # the corpus scan's exact screen agrees with verify_theorem's verdict on
    # every line, each hit's report is verify_theorem's, a line the
    # pre-screen rejects pays for no all-sources BFS and no other line for
    # a second BFS or walk count.  Every met line passes the pre-screen, and
    # of the others only C_5 with a vertex on 0 and 2 (odd girth 5 = 2D + 1)
    # passes it too
    graphs = _mixed_corpus(20)
    lines = [og.encode_graph6(g).decode() for g in graphs]
    met = [og.check_hypothesis(g).met for g in graphs]
    assert met == [og.verify_theorem(g).hypothesis_met for g in graphs]
    assert 0 < sum(met) < len(met)
    screened = [not og.quick_reject(g) for g in graphs]
    assert all(s for s, m in zip(screened, met) if m)
    assert sum(screened) == sum(met) + 1

    counts = []  # per line: calls of distance_data and closed_walks
    real_parse = scan.parse_graph6

    def parse(data):
        counts.append({"distance_data": 0, "closed_walks": 0})
        return real_parse(data)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scan, "parse_graph6", parse)
    monkeypatch.setattr(og.verify, "distance_data", counted("distance_data", og.verify.distance_data))
    monkeypatch.setattr(og.predistance, "closed_walks",
                        counted("closed_walks", og.predistance.closed_walks))
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    summary = scan.scan_corpus(path)
    monkeypatch.undo()

    assert len(counts) == len(lines) and summary.examined == len(lines)
    assert [c["distance_data"] for c in counts] == [int(s) for s in screened], counts
    assert all(c["closed_walks"] <= c["distance_data"] for c in counts), counts
    assert summary.verify_failures == 0 and summary.alarms == 0
    assert [h.graph6 for h in summary.hits] == [ln for ln, m in zip(lines, met) if m]
    for hit in summary.hits:
        g = og.parse_graph6(hit.graph6.encode())
        assert hit.report.to_dict() == og.verify_theorem(g, input_label=hit.graph6).to_dict()


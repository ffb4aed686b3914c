"""scan: the screen, exhaustive agreement with the pipeline, corpora."""

import math
import os

import numpy as np
import pytest

import oddgirth as og
from oddgirth import scan
from oddgirth.spectral import cluster_breaks

from conftest import screen_regular_range


def test_screen_counts_small():
    examined, hits = scan.screen_range(3, 0, 8)
    assert examined == 4  # connected graphs on 3 labeled vertices
    assert [(m, d, g) for m, d, g in hits] == [(7, 1, 3)]  # K_3 only


def test_screen_matches_pipeline_exhaustively(mask_oracle):
    # for every connected graph on <= 6 vertices the screen's hypothesis
    # verdict, eigenvalue count and odd girth must match the full pipeline;
    # at n = 6 the screen solves for eigenvalues of only 181 of 26,704.  The
    # pipeline's eigenvalue counts are solved for all graphs of an n at once
    # and split by cluster_breaks, the rule spectrum() applies to each graph;
    # its odd girths are distance_data's, held per mask by mask_oracle
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
    # the jobs > 1 chunks start and end inside blocks of one neighbour set of
    # the last vertex (2^15 masks at n = 7): pieces cut at such offsets sum to
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


def test_scan_funnel_totals(monkeypatch):
    serial = scan.scan_enumerated(6)
    assert sorted(serial.funnel) == [1, 2, 3, 4, 5, 6]
    totals = {stage: sum(c[stage] for c in serial.funnel.values()) for stage in scan.FUNNEL_STAGES}
    assert totals["masks"] == serial.masks_total == 33867
    assert totals["connected"] == serial.examined == 27476
    assert totals["hits"] == serial.hypothesis_met == 16
    assert totals["triangle_free"] == 3806  # connected and triangle-free, or complete
    assert totals["expanded"] == 556  # of those, not bipartite: 0, 0, 1, 1, 13, 541
    assert totals["survivors"] == 196  # eigensolves: 0, 0, 1, 1, 13, 181
    for counts in serial.funnel.values():
        values = [counts[stage] for stage in scan.FUNNEL_STAGES]
        assert values == sorted(values, reverse=True)
    assert serial.elapsed_s > 0
    doc = serial.to_dict()
    assert doc["funnel"][-1] == {"n": 6, "masks": 32768, "connected": 26704,
                                 "triangle_free": 3572, "expanded": 541,
                                 "survivors": 181, "hits": 1}
    # the forked path sums the funnel over its chunks
    monkeypatch.setattr(scan, "_PARALLEL_FLOOR", 1)
    forked = scan.scan_enumerated(6, jobs=2)
    assert forked.funnel == serial.funnel


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


def test_scan_enumerated_rejects_bad_n():
    with pytest.raises(og.GraphError):
        scan.scan_enumerated(8)
    with pytest.raises(og.GraphError):
        scan.scan_enumerated(0)


def test_scan_jobs_deterministic(monkeypatch):
    monkeypatch.setattr(scan, "_PARALLEL_FLOOR", 1)
    serial = scan.scan_enumerated(5, jobs=1)
    forked = scan.scan_enumerated(5, jobs=3)
    assert [h.graph6 for h in serial.hits] == [h.graph6 for h in forked.hits]
    assert serial.examined == forked.examined
    assert serial.masks_total == forked.masks_total


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


def test_scan_corpus_reports_a_graph_too_large_for_memory(tmp_path, monkeypatch, petersen):
    # a MemoryError in one line's parse (line 2) or verify (line 4) is that
    # line's verify error, and Petersen on lines 1 and 3 is still certified;
    # the errors are raised on purpose, so nothing large is allocated
    c7, c9 = og.generate_family("cycle", [7]), og.generate_family("cycle", [9])
    huge = "Unable to allocate 1.68 GiB for an array with shape (15000, 15000)"
    real_parse, real_verify = scan.parse_graph6, scan.verify_theorem

    def parse(data):
        if data == og.encode_graph6(c7):
            raise MemoryError()
        return real_parse(data)

    def verify(g, *args, **kwargs):
        if g == c9:
            raise MemoryError(huge)
        return real_verify(g, *args, **kwargs)

    monkeypatch.setattr(scan, "parse_graph6", parse)
    monkeypatch.setattr(scan, "verify_theorem", verify)
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join(og.encode_graph6(g) for g in (petersen, c7, petersen, c9)))
    for jobs in (1, 2):
        summary = scan.scan_corpus(path, jobs=jobs)
        assert summary.verify_errors == ["line 2: out of memory", "line 4: " + huge], jobs
        assert summary.parse_failures == 0 and summary.examined == 4, jobs
        assert summary.certified == 2 and summary.alarms == 0, jobs


def test_jobs_capped_at_affinity(tmp_path, petersen):
    cpus = len(os.sched_getaffinity(0))
    # n <= 4 never forks, whatever the worker count
    assert scan.scan_enumerated(3, jobs=10**6).jobs == cpus
    # a single corpus line is verified in this process
    path = tmp_path / "one.g6"
    path.write_bytes(og.encode_graph6(petersen) + b"\n")
    assert scan.scan_corpus(path, jobs=10**6).jobs == cpus


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
    # in one process each line is parsed and verified before the next is
    # parsed: no list of every parsed graph is held first
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join([og.encode_graph6(petersen), b"!bad", og.encode_graph6(prism)]))
    steps = []
    real_parse, real_verify = scan.parse_graph6, scan.verify_theorem

    def parse(text):
        steps.append("parse")
        return real_parse(text)

    def verify(g, *args, **kwargs):
        steps.append("verify")
        return real_verify(g, *args, **kwargs)

    monkeypatch.setattr(scan, "parse_graph6", parse)
    monkeypatch.setattr(scan, "verify_theorem", verify)
    summary = scan.scan_corpus(path)
    assert steps == ["parse", "verify", "parse", "parse", "verify"]
    assert summary.examined == 2 and summary.hypothesis_met == 1
    assert [e[:7] for e in summary.parse_errors] == ["line 2:"]


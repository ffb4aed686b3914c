"""graph_core: parsing, families, distances, odd girth, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oddgirth as og
from oddgirth.graphs import (
    _table,
    adjacency_batch,
    mask_blocks,
    mask_distances,
)

from conftest import cut_oracle, cut_patterns, graph6_oracle_encode, graph6_oracle_parse


def floyd_warshall(g):
    """Independent all-pairs oracle for small n."""
    n = g.n
    INF = 10**9
    d = np.where(g.adj > 0, 1, INF)
    np.fill_diagonal(d, 0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return np.where(d >= INF, og.UNREACHABLE, d)


def mask_flags(n, start=0, stop=None):
    """(3, stop - start) bool: connected, triangle-free and bipartite of masks [start, stop).

    Read off mask_blocks, whose blocks the range may start or end inside.
    """
    if stop is None:
        stop = 1 << (n * (n - 1) // 2)
    return np.concatenate([np.stack(flags) for _, *flags in mask_blocks(n, start, stop)], axis=1)


def odd_girth_by_traces(g):
    """Oracle: first odd l with trace(A^l) > 0, via exact integer powers."""
    A = g.adj
    P = A.copy()
    for ell in range(2, g.n + 1):
        P = P @ A
        if ell % 2 == 1 and np.trace(P) > 0:
            return ell
    return math.inf


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    adj = np.triu((rng.random((n, n)) < 0.5).astype(np.int64), 1)
    return og.Graph(n, adj + adj.T)


def disjoint_union(*graphs):
    n = sum(g.n for g in graphs)
    adj = np.zeros((n, n), dtype=np.int64)
    lo = 0
    for g in graphs:
        adj[lo:lo + g.n, lo:lo + g.n] = g.adj
        lo += g.n
    return og.Graph(n, adj)


def relabeled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return og.Graph(g.n, g.adj[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# Graph type

def test_graph_invariants_enforced():
    with pytest.raises(og.GraphError, match="must be symmetric"):
        og.Graph(2, np.array([[0, 1], [0, 0]]))
    with pytest.raises(og.GraphError, match="self-loops"):
        og.Graph(2, np.array([[1, 1], [1, 0]]))
    with pytest.raises(og.GraphError, match="entries must be 0 or 1"):
        og.Graph(2, np.array([[0, 2], [2, 0]]))
    with pytest.raises(og.GraphError, match="entries must be 0 or 1"):
        og.Graph(2, np.array([[0, -1], [-1, 0]]))
    with pytest.raises(og.GraphError, match="does not match n=3"):
        og.Graph(3, np.zeros((2, 2), dtype=int))
    with pytest.raises(og.GraphError, match="at least one vertex"):
        og.Graph(0, np.zeros((0, 0), dtype=int))
    # the checks run in this order: symmetry before loops before the entries
    with pytest.raises(og.GraphError, match="must be symmetric"):
        og.Graph(2, np.array([[2, 1], [0, 0]]))
    with pytest.raises(og.GraphError, match="self-loops"):
        og.Graph(2, np.array([[2, 1], [1, 0]]))


def test_graph_equality_and_degrees():
    g = og.graph_from_edges(3, [(0, 1), (1, 2)])
    assert g == og.graph_from_edges(3, [(1, 2), (0, 1)])
    assert g != og.graph_from_edges(3, [(0, 1)])
    assert list(g.degrees()) == [1, 2, 1]
    assert g.edge_count() == 2
    assert not g.is_regular()
    assert og.generate_family("cycle", [4]).is_regular()


# ---------------------------------------------------------------------------
# graph6

def test_parse_graph6_k2():
    g = og.parse_graph6(b"A_")
    assert g.n == 2
    assert g.adj[0, 1] == 1


def test_parse_graph6_single_vertex():
    g = og.parse_graph6(b"@")
    assert g.n == 1
    assert g.edge_count() == 0
    assert og.encode_graph6(g) == b"@"


def test_encode_graph6_k2():
    assert og.encode_graph6(og.generate_family("complete", [2])) == b"A_"


def test_graph6_c5_round_trip():
    c5 = og.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert og.parse_graph6(og.encode_graph6(c5)) == c5


def test_graph6_petersen_round_trip(petersen):
    enc = og.encode_graph6(petersen)
    assert len(enc) == 1 + (45 + 5) // 6
    assert og.parse_graph6(enc) == petersen


def test_graph6_accepts_string_and_newline():
    assert og.parse_graph6("A_\n").n == 2
    assert og.parse_graph6(b"A_\r\n").n == 2


def test_graph6_long_header_round_trip():
    g = og.generate_family("folded_cube", [7])  # n = 64 crosses the short-header limit
    enc = og.encode_graph6(g)
    assert enc[0] == 126
    assert og.parse_graph6(enc) == g


def test_graph6_errors_name_byte_offsets():
    with pytest.raises(og.GraphError, match="offset 0"):
        og.parse_graph6(b"##")
    with pytest.raises(og.GraphError, match="offset 1"):
        og.parse_graph6(b"B" + bytes([200]))
    with pytest.raises(og.GraphError, match="truncated body"):
        og.parse_graph6(b"D")  # n=5 needs body bytes
    with pytest.raises(og.GraphError, match="trailing data"):
        og.parse_graph6(b"A_q")
    with pytest.raises(og.GraphError, match="padding"):
        # n=2: one bit used, the remaining five padding bits must be zero
        og.parse_graph6(bytes([63 + 2, 63 + 0b100001]))
    with pytest.raises(og.GraphError, match="empty"):
        og.parse_graph6(b"")
    with pytest.raises(og.GraphError, match="out of range"):
        og.parse_graph6(b"?")  # n = 0


def test_graph6_unsupported_size():
    g = og.Graph(1, np.zeros((1, 1), dtype=int))
    g.n = 300000  # simulate an encoder call beyond the long header range
    g.adj = np.zeros((0, 0))
    with pytest.raises(og.GraphError, match="header range"):
        og.encode_graph6(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 130), st.integers(0, 10**9))
def test_graph6_round_trip_random(n, seed):
    g = random_graph(n, seed)
    assert og.parse_graph6(og.encode_graph6(g)) == g


def test_lower_triangle_order_is_edge_pairs():
    # graph6, graph_from_mask and graph_mask all number the pairs this way
    for n in range(1, 13):
        rows, cols = np.nonzero(np.tri(n, k=-1, dtype=bool))
        assert list(zip(cols.tolist(), rows.tolist())) == og.edge_pairs(n), n


def _assert_graph6_matches_oracle(g):
    enc = og.encode_graph6(g)
    assert enc == graph6_oracle_encode(g), g.n
    assert og.parse_graph6(enc) == graph6_oracle_parse(enc) == g, g.n


def test_graph6_matches_oracle_on_every_small_mask():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            _assert_graph6_matches_oracle(og.graph_from_mask(n, mask))


def test_graph6_matches_oracle_on_family_suite(family_suite):
    for _, g in family_suite:
        _assert_graph6_matches_oracle(g)


def test_graph6_matches_oracle_on_random_graphs():
    # n = 62/63 is the short/long header boundary
    rng = np.random.default_rng(13)
    for n in [1, 2, 3, 7, 13, 60, 61, 62, 63, 64, 65, 100, 126, 200, 300]:
        for density in (0.0, 0.1, 0.5, 1.0):
            adj = np.triu((rng.random((n, n)) < density).astype(np.int64), 1)
            _assert_graph6_matches_oracle(og.Graph(n, adj + adj.T))


def _graph6_outcome(parse, data):
    """The parsed Graph, or the text of the GraphError the input raises."""
    try:
        return parse(data)
    except og.GraphError as exc:
        return "GraphError: %s" % exc


GRAPH6_ERRORS = [
    ("B\u00e9w", "non-ASCII character at byte offset 1"),
    (b"B" + bytes([200]), "byte 0xc8 at offset 1 outside"),
    (b"##", "byte 0x23 at offset 0 outside"),
    (b"Bw\x7f", "byte 0x7f at offset 2 outside"),
    (b"", "empty input"),
    (b"\r\n", "empty input"),
    (b"?", "vertex count 0 out of range"),
    (b"~???", "vertex count 0 out of range"),
    (b"~~??????", "vertex count 0 out of range"),
    (b"~", "truncated very-long header at offset 1"),
    (b"~?", "truncated long header at offset 2"),
    (b"~??", "truncated long header at offset 3"),
    (b"~~", "truncated very-long header at offset 2"),
    (b"~~?????", "truncated very-long header at offset 7"),
    (b"D", "truncated body at offset 1 (n=5 needs 2 data bytes)"),
    (b"~?@?", "truncated body at offset 4 (n=64 needs 336 data bytes)"),
    (b"A_q", "trailing data at offset 2"),
    (b"~??@?", "trailing data at offset 4"),
    (bytes([63 + 2, 63 + 0b100001]), "nonzero padding bit in byte at offset 1"),
    (b"Dw" + bytes([63 + 1]), "nonzero padding bit in byte at offset 2"),
]


def test_graph6_errors_match_oracle():
    for data, message in GRAPH6_ERRORS:
        found = _graph6_outcome(og.parse_graph6, data)
        assert found == _graph6_outcome(graph6_oracle_parse, data), data
        assert isinstance(found, str) and message in found, (data, found)


def test_graph6_mutations_match_oracle(family_suite):
    # seeded single-byte mutations, every truncation and one-byte extensions
    # of real lines, the long-header folded 7-cube among them
    rng = np.random.default_rng(29)
    lines = [og.encode_graph6(g) for _, g in family_suite] + [b"@", b"A_"]
    messages = set()
    for line in lines:
        inputs = [line[:i] for i in range(len(line))]
        for _ in range(100):
            i, byte = int(rng.integers(len(line))), int(rng.integers(256))
            inputs.append(line[:i] + bytes([byte]) + line[i + 1:])
            i, byte = int(rng.integers(len(line) + 1)), int(rng.integers(256))
            inputs.append(line[:i] + bytes([byte]) + line[i:])
        for data in inputs:
            found = _graph6_outcome(og.parse_graph6, data)
            assert found == _graph6_outcome(graph6_oracle_parse, data), data
            if isinstance(found, str):
                messages.add(found)
    for branch in ("empty", "outside printable", "out of range", "truncated long header",
                   "truncated body", "trailing data", "padding"):
        assert any(branch in m for m in messages), branch


# ---------------------------------------------------------------------------
# edge list

def test_parse_edge_list_basic():
    assert og.parse_edge_list("2\n0 1\n") == og.generate_family("complete", [2])
    c5 = og.parse_edge_list("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert c5 == og.generate_family("cycle", [5])


def test_parse_edge_list_duplicates_collapse():
    g = og.parse_edge_list("3\n0 1\n1 0\n")
    assert g.edge_count() == 1
    assert g.n == 3


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(og.GraphError, match="line 2"):
        og.parse_edge_list("3\n0 7\n")
    with pytest.raises(og.GraphError, match="line 3"):
        og.parse_edge_list("3\n0 1\n2 2\n")
    with pytest.raises(og.GraphError, match="line 2"):
        og.parse_edge_list("3\nx y\n")
    with pytest.raises(og.GraphError, match="line 1"):
        og.parse_edge_list("not_a_number\n")
    with pytest.raises(og.GraphError, match="empty"):
        og.parse_edge_list("\n\n")
    with pytest.raises(og.GraphError, match="line 4"):
        og.parse_edge_list("3\n0 1\n\n0 1 2\n")


# ---------------------------------------------------------------------------
# families

def test_complete_cycle_path():
    k4 = og.generate_family("complete", [4])
    assert k4.edge_count() == 6 and k4.is_regular()
    c6 = og.generate_family("cycle", [6])
    assert c6.edge_count() == 6 and list(c6.degrees()) == [2] * 6
    p4 = og.generate_family("path", [4])
    assert p4.edge_count() == 3
    assert og.generate_family("path", [1]).n == 1


def test_petersen_shape(petersen):
    assert petersen.n == 10
    assert petersen.is_regular() and petersen.degrees()[0] == 3
    dd = og.distance_data(petersen)
    assert dd.diameter == 2
    assert og.odd_girth(petersen) == 5


def test_odd_3_is_petersen(petersen):
    # the spectrum {3, 1^5, (-2)^4} determines the Petersen graph, so matching
    # spectra plus matching intersection arrays is an isomorphism check here
    o3 = og.generate_family("odd", [3])
    assert o3.n == 10 and o3.is_regular() and o3.degrees()[0] == 3
    s1, s2 = og.spectrum(o3), og.spectrum(petersen)
    assert np.allclose(s1.values, s2.values) and list(s1.mults) == list(s2.mults)
    assert og.intersection_array(o3) == og.intersection_array(petersen)


def test_odd_2_is_triangle():
    assert og.generate_family("odd", [2]) == og.generate_family("complete", [3])


def test_folded_cube_5():
    g = og.generate_family("folded_cube", [5])
    assert g.n == 16
    assert g.is_regular() and g.degrees()[0] == 5
    assert og.distance_data(g).diameter == 2


def test_folded_cube_3_is_k4():
    assert og.generate_family("folded_cube", [3]) == og.generate_family("complete", [4])


def test_prism_shape(prism):
    assert prism.n == 6 and prism.is_regular() and prism.degrees()[0] == 3
    assert og.odd_girth(prism) == 3
    assert og.distance_data(prism).diameter == 2


def test_family_errors():
    with pytest.raises(og.GraphError, match="unknown family"):
        og.generate_family("hypercube", [3])
    with pytest.raises(og.GraphError, match="parameter"):
        og.generate_family("petersen", [1])
    with pytest.raises(og.GraphError, match="parameter"):
        og.generate_family("cycle", [])
    with pytest.raises(og.GraphError):
        og.generate_family("odd", [1])
    with pytest.raises(og.GraphError):
        og.generate_family("cycle", [2])
    with pytest.raises(og.GraphError):
        og.generate_family("folded_cube", [1])
    with pytest.raises(og.GraphError):
        og.generate_family("complete", [0])


# ---------------------------------------------------------------------------
# distances

def test_distance_data_k2():
    dd = og.distance_data(og.generate_family("complete", [2]))
    assert dd.dist.tolist() == [[0, 1], [1, 0]]
    assert dd.diameter == 1 and dd.connected


def test_distance_data_petersen(petersen):
    dd = og.distance_data(petersen)
    off = dd.dist[~np.eye(10, dtype=bool)]
    assert set(off.tolist()) == {1, 2}


def test_distance_data_disconnected():
    dd = og.distance_data(og.graph_from_edges(2, []))
    assert not dd.connected
    assert dd.dist[0, 1] == og.UNREACHABLE
    assert dd.diameter == 0


def test_distance_data_level_zero_edge_cases():
    # level 0 is read off the adjacency with no product; these graphs end there or at level 1
    cases = (
        (og.graph_from_edges(1, []), True, 0),
        (og.graph_from_edges(5, []), False, 0),
        (og.generate_family("complete", [2]), True, 1),
    )
    for g, connected, diameter in cases:
        dd = og.distance_data(g)
        assert np.array_equal(dd.dist, floyd_warshall(g)), g.n
        assert dd.connected == connected, g.n
        assert dd.diameter == diameter, g.n
        assert dd.odd_girth == og.odd_girth(g) == math.inf, g.n


def test_distance_matches_floyd_warshall(family_suite):
    for seed in range(10):
        g = random_graph(8, seed)
        assert np.array_equal(og.distance_data(g).dist, floyd_warshall(g))
    for label, g in family_suite:
        if g.n <= 40:
            assert np.array_equal(og.distance_data(g).dist, floyd_warshall(g)), label


def test_distance_data_large_relabeled():
    # O_5 (n=126) and the folded 9-cube (n=256), both of odd girth 9, in a
    # random vertex order so no level of the expansion follows the labels
    for family, param in (("odd", 5), ("folded_cube", 9)):
        g = relabeled(og.generate_family(family, [param]), param)
        dd = og.distance_data(g)
        assert np.array_equal(dd.dist, floyd_warshall(g)), family
        assert dd.connected and dd.diameter == 4, family
        assert dd.odd_girth == og.odd_girth(g) == 9, family


def test_distance_invariants():
    for seed in range(5):
        g = random_graph(7, seed)
        dd = og.distance_data(g)
        d = dd.dist
        assert np.array_equal(d, d.T)
        assert (np.diag(d) == 0).all()
        assert np.array_equal(d == 1, g.adj == 1)
        if dd.connected:
            assert dd.diameter <= g.n - 1


# ---------------------------------------------------------------------------
# odd girth

def test_odd_girth_small_cases(petersen):
    assert og.odd_girth(og.generate_family("cycle", [5])) == 5
    assert og.odd_girth(og.generate_family("complete", [2])) == math.inf
    assert og.odd_girth(petersen) == 5
    assert og.odd_girth(og.generate_family("path", [1])) == math.inf
    assert og.odd_girth(og.generate_family("complete", [4])) == 3


def test_odd_girth_matches_trace_oracle_exhaustive():
    for n in range(1, 6):
        for g in og.enumerate_connected(n):
            assert og.odd_girth(g) == odd_girth_by_traces(g)


def test_odd_girth_matches_trace_oracle_random():
    for seed in range(30):
        g = random_graph(9, seed)
        assert og.odd_girth(g) == odd_girth_by_traces(g), seed


def test_odd_girth_disconnected():
    cycles = {k: og.generate_family("cycle", [k]) for k in (4, 5, 6, 7, 9)}
    k2 = og.generate_family("complete", [2])
    for g, want in (
        (disjoint_union(cycles[5], cycles[7]), 5),
        (disjoint_union(k2, cycles[9]), 9),
        (disjoint_union(cycles[4], cycles[6]), math.inf),
    ):
        assert not og.distance_data(g).connected
        assert og.odd_girth(g) == want == odd_girth_by_traces(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10**9))
def test_odd_girth_is_odd_or_infinite(n, seed):
    g = random_graph(n, seed)
    value = og.odd_girth(g)
    assert value == math.inf or (value % 2 == 1 and 3 <= value <= n)
    # triangle characterization: odd girth 3 iff trace(A^3) > 0
    assert (value == 3) == (np.trace(g.adj @ g.adj @ g.adj) > 0)


# ---------------------------------------------------------------------------
# enumeration

def brute_force_connected_count(n):
    # independent connectivity oracle: union-find over explicit edge subsets
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b, (u, v) in enumerate(pairs):
            if (mask >> b) & 1:
                parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            count += 1
    return count


def test_enumerate_connected_counts():
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, want in expected.items():
        graphs = list(og.enumerate_connected(n))
        assert len(graphs) == want
        assert want == brute_force_connected_count(n)
        for g in graphs:
            assert og.distance_data(g).connected


def test_enumerate_connected_rejects_bad_n():
    with pytest.raises(og.GraphError):
        list(og.enumerate_connected(0))
    with pytest.raises(og.GraphError):
        list(og.enumerate_connected(8))


def test_mask_round_trip():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert og.graph_mask(og.graph_from_mask(n, mask)) == mask
    for n in (0, 12):
        with pytest.raises(og.GraphError):
            og.graph_from_mask(n, 0)


def test_mask_distances_match_distance_data(mask_oracle):
    masks = np.arange(1 << 10)
    diameter, girth = mask_distances(5, masks)
    assert mask_flags(5)[0].tolist() == mask_oracle[5]["connected"]
    assert diameter.tolist() == mask_oracle[5]["diameter"]
    assert girth.tolist() == mask_oracle[5]["odd_girth"]


def test_mask_distances_mixed_levels_match_distance_data(mask_oracle):
    # 6-vertex batches mix diameters 0..5 with disconnected graphs, so rows
    # run out of levels while others are still expanding
    masks = np.arange(1 << 15)
    diameter, girth = mask_distances(6, masks)
    assert sorted(set(diameter.tolist())) == [0, 1, 2, 3, 4, 5]
    assert mask_flags(6)[0].tolist() == mask_oracle[6]["connected"]
    assert diameter.tolist() == mask_oracle[6]["diameter"]
    assert girth.tolist() == mask_oracle[6]["odd_girth"]


def test_mask_distances_on_expanded_seven_vertex_masks():
    # every eighth of the 25,981 masks the n = 7 screen expands: connected,
    # triangle-free or complete, not bipartite, as scan.screen_range keeps them
    complete = (1 << 21) - 1
    kept = []
    for lo, connected, free, bipartite in mask_blocks(7, 0, 1 << 21):
        keep = connected & free
        if lo <= complete < lo + len(keep):
            keep[complete - lo] = True
        kept.append(lo + np.flatnonzero(keep & ~bipartite))
    expanded = np.concatenate(kept)
    assert len(expanded) == 25981
    masks = expanded[::8]
    diameter, girth = mask_distances(7, masks)
    want = [og.distance_data(og.graph_from_mask(7, int(m))) for m in masks]
    assert diameter.tolist() == [dd.diameter for dd in want]
    assert girth.tolist() == [dd.odd_girth for dd in want]
    assert sorted(set(diameter.tolist())) == [2, 3, 4]  # K_7, of diameter 1, is not sampled


def test_mask_distances_seven_vertex_batch():
    c5_k2 = disjoint_union(og.generate_family("cycle", [5]), og.generate_family("complete", [2]))
    k34 = og.graph_from_edges(7, [(u, v) for u in range(3) for v in range(3, 7)])
    cases = [  # graph, connected, diameter, odd girth, triangle-free
        (og.graph_from_edges(7, []), False, 0, math.inf, True),
        (og.generate_family("complete", [7]), True, 1, 3, False),
        (og.generate_family("cycle", [7]), True, 3, 7, True),
        (og.generate_family("path", [7]), True, 6, math.inf, True),
        (c5_k2, False, 2, 5, True),
        (k34, True, 2, math.inf, True),
    ]
    masks = np.array([og.graph_mask(g) for g, *_ in cases], dtype=np.int64)
    diameter, girth = mask_distances(7, masks)
    assert np.array_equal(adjacency_batch(7, masks), np.array([g.adj for g, *_ in cases]))
    connected, free, bipartite = np.concatenate([mask_flags(7, m, m + 1) for m in masks], axis=1)
    assert connected.tolist() == [c[1] for c in cases]
    assert free.tolist() == [c[4] for c in cases]
    assert bipartite.tolist() == [math.isinf(c[3]) for c in cases]
    for row, (g, connected, want_diameter, want_girth, _) in enumerate(cases):
        dd = og.distance_data(g)
        assert dd.connected == connected, row
        assert diameter[row] == dd.diameter == want_diameter, row
        assert girth[row] == dd.odd_girth == want_girth, row


def test_mask_distances_empty_batch():
    for n in (1, 2, 5, 7):
        empty = np.empty(0, dtype=np.int64)
        for values in mask_distances(n, empty):
            assert values.shape == (0,)


def test_mask_patterns_exhaustive(mask_oracle):
    # every mask on n <= 6 vertices: connectivity against reachability,
    # triangles against trace(A^3) and bipartiteness against an infinite odd
    # girth (no odd closed walk)
    for n in range(1, 7):
        connected, free, bipartite = mask_flags(n)
        assert connected.tolist() == mask_oracle[n]["connected"], n
        assert free.tolist() == mask_oracle[n]["triangle_free"], n
        assert bipartite.tolist() == [math.isinf(g) for g in mask_oracle[n]["odd_girth"]], n


def test_mask_flags_match_cut_oracle():
    # all 2,131,019 masks on n <= 7 vertices, by blocks, against the cut and
    # triangle tables
    for n in range(1, 8):
        total = 1 << (n * (n - 1) // 2)
        want = np.stack(cut_oracle(n, np.arange(total, dtype=np.int64)))
        blocks = list(mask_blocks(n, 0, total))
        assert [lo for lo, *_ in blocks] == list(range(0, total, total >> (n - 1))), n
        got = np.concatenate([np.stack(flags) for _, *flags in blocks], axis=1)
        assert np.array_equal(got, want), n


def test_mask_tables():
    for m in range(7):
        table = _table(m)
        rows = 1 << (m * (m - 1) // 2)
        assert table.comp.shape == table.same.shape == (m, rows), m
        assert len(table.triangle_free) == len(table.bipartite) == len(table.low) == rows, m
        assert table.low.tolist() == list(range(rows)), m
        assert all(not a.flags.writeable for a in table), m
        # pairs[S] holds exactly the pairs inside S
        inside = [sum(1 << b for b, (u, v) in enumerate(og.edge_pairs(m)) if S >> u & S >> v & 1)
                  for S in range(1 << m)]
        assert table.pairs.tolist() == inside, m
        if not m:
            continue
        # every vertex lies in its component and in its own colour class,
        # which lies in the component; vertices of one component agree on it
        vertex = (1 << np.arange(m, dtype=np.uint8))[:, None]
        assert ((table.comp & vertex) != 0).all() and ((table.same & vertex) != 0).all(), m
        bip = table.bipartite
        assert ((table.same[:, bip] & ~table.comp[:, bip]) == 0).all(), m
        for u in range(m):
            for v in range(m):
                joined = (table.comp[u] >> v) & 1 == 1
                assert (table.comp[v][joined] == table.comp[u][joined]).all(), (m, u, v)
    # n = 1 has no cut and n <= 2 no triangle: every mask passes; K_1 is bipartite
    assert mask_flags(1).tolist() == [[True], [True], [True]]
    assert mask_flags(2).tolist() == [[False, True], [True, True], [True, True]]


def test_mask_pattern_tables():
    # the reference cut and triangle tables, n = 1..11
    for n in range(1, 12):
        cuts, triangles = cut_patterns(n)
        assert len(cuts) == 2 ** (n - 1) - 1, n
        assert len(triangles) == math.comb(n, 3), n
        assert len(set(cuts.tolist())) == len(cuts) and 0 not in cuts.tolist(), n
        assert all(bin(t).count("1") == 3 for t in triangles.tolist()), n
        assert not cuts.flags.writeable and not triangles.flags.writeable
    # n = 11 uses 55 of the 63 bits: K_11, the empty graph and the star at
    # vertex 10, whose edges are the top ten bits
    full = (1 << 55) - 1
    star = full ^ ((1 << 45) - 1)
    connected, free, bipartite = cut_oracle(11, [full, 0, star])
    assert connected.tolist() == [True, False, True]
    assert free.tolist() == [False, True, True]
    assert bipartite.tolist() == [False, True, True]


def test_mask_patterns_reject_wide_masks():
    # the tables cover n <= 7; n = 12 would need 66 bits, more than an int64 mask holds
    for n in (0, 8, 12):
        with pytest.raises(og.GraphError):
            next(mask_blocks(n, 0, 1))


def test_masks_out_of_range_rejected():
    # a mask outside [0, 2^(n(n-1)/2)) is an error naming n and the mask,
    # not a graph with the extra bits dropped or a loop read off bit 63
    for mask in (8, 15, -1, 1 << 40):
        with pytest.raises(og.GraphError, match=r"edge bitmask %d .*n=3" % mask):
            og.graph_from_mask(3, mask)
    with pytest.raises(og.GraphError, match="n=1"):
        og.graph_from_mask(1, 1)
    with pytest.raises(og.GraphError, match="n=1"):
        next(mask_blocks(1, 0, 2))
    assert og.graph_from_mask(3, 7) == og.generate_family("complete", [3])
    with pytest.raises(og.GraphError, match="outside"):
        next(mask_blocks(3, 0, 9))
    with pytest.raises(og.GraphError, match="outside"):
        next(mask_blocks(3, 5, 4))
    assert list(mask_blocks(3, 4, 4)) == []

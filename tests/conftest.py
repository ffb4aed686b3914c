"""Shared fixtures: the family suite, frozen oracle data and a per-bit graph6 codec.

The frozen spectra and intersection arrays below are standard facts about
these families (circulant eigenvalues for cycles, binomial eigenvalue
multiplicities for the folded cubes, the alternating k - i eigenvalues for
the odd graphs); the tests treat them as independent oracles for the
numerical pipeline.
"""

import functools
import math
from itertools import combinations, permutations

import numpy as np
import pytest

import oddgirth as og
from oddgirth.graphs import edge_pairs, mask_blocks

# one line per acceptance criterion, echoed after the run by the summary hook
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

FAMILY_SUITE = (
    [("petersen", ())]
    + [("odd", (4,))]
    + [("folded_cube", (m,)) for m in (5, 7)]
    + [("cycle", (k,)) for k in (5, 7, 9, 11)]
    + [("complete", (k,)) for k in range(2, 11)]
)


def suite_label(family, params):
    return family if not params else "%s_%s" % (family, "_".join(map(str, params)))


def _cycle_spectrum(n):
    # circulant eigenvalues 2 cos(2 pi j / n), j = 0 .. (n-1)/2, doubled except j=0
    out = [(2.0, 1)]
    for j in range(1, (n + 1) // 2):
        out.append((2.0 * math.cos(2.0 * math.pi * j / n), 2))
    return sorted(out, reverse=True)


KNOWN_SPECTRA = {
    "petersen": [(3, 1), (1, 5), (-2, 4)],
    "odd_4": [(4, 1), (2, 14), (-1, 14), (-3, 6)],
    "folded_cube_5": [(5, 1), (1, 10), (-3, 5)],
    "folded_cube_7": [(7, 1), (3, 21), (-1, 35), (-5, 7)],
}
for k in (5, 7, 9, 11):
    KNOWN_SPECTRA["cycle_%d" % k] = _cycle_spectrum(k)
for k in range(2, 11):
    KNOWN_SPECTRA["complete_%d" % k] = [(k - 1, 1), (-1, k - 1)]

KNOWN_ARRAYS = {
    "petersen": {"b": [3, 2], "c": [1, 1]},
    "odd_4": {"b": [4, 3, 3], "c": [1, 1, 2]},
    "folded_cube_5": {"b": [5, 4], "c": [1, 2]},
    "folded_cube_7": {"b": [7, 6, 5], "c": [1, 2, 3]},
}
for k in (5, 7, 9, 11):
    D = (k - 1) // 2
    KNOWN_ARRAYS["cycle_%d" % k] = {"b": [2] + [1] * (D - 1), "c": [1] * D}
for k in range(2, 11):
    KNOWN_ARRAYS["complete_%d" % k] = {"b": [k - 1], "c": [1]}


def screen_regular_range(n, start, stop):
    """Masks in [start, stop) whose graphs on n vertices are connected and regular.

    The degree of v is the popcount of the mask against v's star, the bits of
    the pairs that contain v.
    """
    stars = [sum(1 << b for b, pair in enumerate(edge_pairs(n)) if v in pair) for v in range(n)]
    out = []
    for lo, connected, _, _ in mask_blocks(n, start, stop):
        masks = lo + np.flatnonzero(connected)
        deg = np.stack([np.bitwise_count(masks & star) for star in stars], axis=1)
        out.extend(int(m) for m in masks[(deg == deg[:, :1]).all(axis=1)])
    return out


@functools.lru_cache(maxsize=None)
def cut_patterns(n):
    """(cuts, triangles): read-only int64 arrays of edge bitmasks on n vertices, 1 <= n <= 11.

    cuts holds, for each vertex set S with 0 in S != V, the edges with one end
    in S: 2^(n-1) - 1 masks.  triangles holds the C(n, 3) triangles.  Above
    n = 11 the n(n-1)/2 pairs no longer fit in the 63 bits of a mask.
    """
    assert 1 <= n <= 11, n
    bit = {pair: 1 << b for b, pair in enumerate(edge_pairs(n))}
    cuts = []
    for inside in range((1 << (n - 1)) - 1):  # the vertices 1..n-1 in S, never all
        side = [True] + [bool((inside >> (v - 1)) & 1) for v in range(1, n)]
        cuts.append(sum(b for (u, v), b in bit.items() if side[u] != side[v]))
    triangles = [bit[a, b] | bit[a, c] | bit[b, c] for a, b, c in combinations(range(n), 3)]
    tables = (np.array(cuts, dtype=np.int64), np.array(triangles, dtype=np.int64))
    for table in tables:
        table.setflags(write=False)
    return tables


def cut_oracle(n, masks):
    """(connected, triangle_free, bipartite) of each edge bitmask by the cut and triangle tables.

    The package's reference for its vertex-extension tables, one AND per
    pattern.  A graph is disconnected iff some cut holds none of its edges,
    mask & cut == 0; it is bipartite iff some cut holds all of them,
    mask & cut == mask (the cut of the colour class of vertex 0; K_1, which
    has no cut, is bipartite); it has a triangle T iff mask & T == T.
    """
    masks = np.asarray(masks, dtype=np.int64)
    cuts, triangles = cut_patterns(n)
    connected = np.ones(len(masks), dtype=bool)
    bipartite = np.full(len(masks), n == 1)
    free = np.ones(len(masks), dtype=bool)
    anded = np.empty_like(masks)
    for cut in cuts:
        np.bitwise_and(masks, cut, out=anded)
        connected &= anded != 0
        bipartite |= anded == masks
    for triangle in triangles:
        free &= np.bitwise_and(masks, triangle, out=anded) != triangle
    return connected, free, bipartite


def orbit_oracle(n, mask):
    """Sorted edge bitmasks of every relabeling of mask's graph on n vertices, by brute force.

    The reference for graphs.mask_orbit: the adjacency, built pair by pair
    from edge_pairs, is permuted by each of the n! permutations p, A[p][:, p],
    and each relabeled graph's mask is read back by graph_mask.
    """
    adj = np.zeros((n, n), dtype=np.int64)
    for b, (u, v) in enumerate(edge_pairs(n)):
        adj[u, v] = adj[v, u] = (mask >> b) & 1
    return sorted({og.graph_mask(og.Graph(n, adj[np.ix_(p, p)]))
                   for p in permutations(range(n))})


@functools.lru_cache(maxsize=None)
def odd_graph_oracle(k):
    """Adjacency of O_k by definition, read-only: the (k-1)-subsets of a
    (2k-1)-set in combinations order, every pair tested for disjointness."""
    sets = [frozenset(v) for v in combinations(range(2 * k - 1), k - 1)]
    n = len(sets)
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if not (sets[i] & sets[j]):
                adj[i, j] = adj[j, i] = 1
    adj.setflags(write=False)
    return adj


def folded_cube_oracle(m):
    """Adjacency of the folded m-cube by definition: the edges of the
    (m-1)-cube, one bit flipped, plus the antipodal matching u ~ u ^ (n-1)."""
    n = 1 << (m - 1)
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in [u ^ (1 << b) for b in range(m - 1)] + [u ^ (n - 1)]:
            adj[u, v] = adj[v, u] = 1
    return adj


def graph6_oracle_parse(text):
    """parse_graph6 by definition: one bit per step, the pair read off edge_pairs.

    Same results and the same GraphError text as the package's codec, which
    decodes whole arrays; kept here as its reference.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise og.GraphError("graph6: non-ASCII character at byte offset %d" % exc.start)
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if not data:
        raise og.GraphError("graph6: empty input")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise og.GraphError(
                "graph6: byte 0x%02x at offset %d outside printable range 63..126" % (byte, off)
            )

    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise og.GraphError("graph6: truncated long header at offset %d" % len(data))
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise og.GraphError("graph6: truncated very-long header at offset %d" % len(data))
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        pos = 8
    if n < 1:
        raise og.GraphError("graph6: vertex count %d out of range (offset 0)" % n)

    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    body = data[pos:]
    if len(body) < nbytes:
        raise og.GraphError(
            "graph6: truncated body at offset %d (n=%d needs %d data bytes)"
            % (len(data), n, nbytes)
        )
    if len(body) > nbytes:
        raise og.GraphError("graph6: trailing data at offset %d" % (pos + nbytes))

    pairs = edge_pairs(n)
    adj = np.zeros((n, n), dtype=np.int64)
    idx = 0
    for k, byte in enumerate(body):
        group = byte - 63
        for shift in range(5, -1, -1):
            bit = (group >> shift) & 1
            if idx < nbits:
                if bit:
                    u, v = pairs[idx]
                    adj[u, v] = adj[v, u] = 1
            elif bit:
                raise og.GraphError("graph6: nonzero padding bit in byte at offset %d" % (pos + k))
            idx += 1
    return og.Graph(n, adj)


def graph6_oracle_encode(g):
    """encode_graph6 by definition: six pairs of edge_pairs at a time into one byte."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise og.GraphError("graph6: n=%d exceeds the supported header range" % n)

    out = bytearray(head)
    val = nfill = 0
    for u, v in edge_pairs(n):
        val = (val << 1) | int(g.adj[u, v])
        nfill += 1
        if nfill == 6:
            out.append(val + 63)
            val = nfill = 0
    if nfill:
        out.append((val << (6 - nfill)) + 63)
    return bytes(out)


def mask_distance_oracle(n, masks):
    """What the definitions give for the graph of each edge bitmask on n vertices, at once.

    Shares no code with the package.  The pair (u, v), u < v, is bit
    v(v-1)/2 + u.  Distances come from boolean reachability: u reaches v
    within k steps iff (I + A)^k has (u, v) > 0.  Returns a dict of arrays:
    connected (every pair reached within n - 1 steps), diameter (the
    largest finite distance), odd_girth (the least odd ell <= n with
    tr(A^ell) > 0, inf if none: a shortest odd closed walk is a cycle) and
    triangle_free (tr(A^3) = 0).
    """
    masks = np.asarray(masks, dtype=np.int64)
    A = np.zeros((len(masks), n, n), dtype=np.int64)
    for v in range(n):
        for u in range(v):
            A[:, u, v] = A[:, v, u] = (masks >> (v * (v - 1) // 2 + u)) & 1
    reach = np.broadcast_to(np.eye(n, dtype=bool), A.shape)
    diameter = np.zeros(len(masks), dtype=np.int64)
    power = np.broadcast_to(np.eye(n, dtype=np.int64), A.shape)
    girth = np.full(len(masks), math.inf)
    traces = {}
    for ell in range(1, n + 1):
        grown = reach | (np.matmul(reach.astype(np.int64), A) > 0)
        diameter[(grown != reach).any(axis=(1, 2))] = ell
        reach = grown
        power = np.matmul(power, A)
        traces[ell] = np.trace(power, axis1=1, axis2=2)
        if ell % 2:
            girth[np.isinf(girth) & (traces[ell] > 0)] = ell
    return {
        "connected": reach.all(axis=(1, 2)),
        "diameter": diameter,
        "odd_girth": girth,
        "triangle_free": traces[3] == 0 if n >= 3 else np.ones(len(masks), dtype=bool),
    }


def level_distances(dd):
    """The distance matrix read off the levels of dd's expansion, -1 where no level reaches.

    Entry (u, v) is the i of the level graphs.distance_levels(dd.product)
    that holds the pair: the tests compare the levels with independent
    oracles (floyd_warshall, loops over neighbours) through this matrix.
    """
    n = dd.product.n
    dist = np.full((n, n), -1, dtype=np.int64)
    for i, level in enumerate(og.graphs.distance_levels(dd.product)):
        dist[level] = i
    return dist


@pytest.fixture(scope="session")
def mask_oracle():
    """For n <= 6, lists indexed by mask of what mask_distance_oracle gives for its graph.

    All masks of an n at once; the keys are mask_distance_oracle's.
    """
    oracle = {}
    for n in range(1, 7):
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
        oracle[n] = {key: values.tolist()
                     for key, values in mask_distance_oracle(n, masks).items()}
    return oracle


@pytest.fixture(scope="session")
def sparse_irregular():
    """A path on vertices 1..299 with 60 seeded chords, and vertex 0 isolated.

    Irregular and disconnected, with largest degree at most 6, so it is
    above both neighbour-sum floors; the isolated vertex's row of the
    neighbour table is all padding.
    """
    rng = np.random.default_rng(11)
    chords = [(int(u), int(v)) for u, v in rng.integers(1, 300, size=(60, 2)) if u != v]
    return og.graph_from_edges(300, [(u, u + 1) for u in range(1, 299)] + chords)


@pytest.fixture(scope="session")
def family_suite():
    return [
        (suite_label(fam, params), og.generate_family(fam, params))
        for fam, params in FAMILY_SUITE
    ]


@pytest.fixture(scope="session")
def petersen():
    return og.generate_family("petersen")


@pytest.fixture(scope="session")
def prism():
    return og.generate_family("prism")


@pytest.fixture(scope="session")
def p3():
    return og.generate_family("path", (3,))


@pytest.fixture(scope="session")
def c5():
    return og.generate_family("cycle", (5,))


@pytest.fixture
def break_verify(monkeypatch):
    """break_verify(g): the corpus scan's report of g raises a numerical breakdown.

    Exact arithmetic leaves no natural graph whose verify breaks down, so the
    per-line error handling is exercised by making one graph's fail.  The
    fault is raised in the report step (theorem_report), which a corpus line
    reaches only if it meets the hypothesis, so g must meet it.  A fork pool
    inherits the patch.
    """
    def fail_on(bad):
        real = og.scan.theorem_report

        def report(g, *args, **kwargs):
            if g == bad:
                raise og.NumericalError("eigensolver failed: broken on purpose")
            return real(g, *args, **kwargs)

        monkeypatch.setattr(og.scan, "theorem_report", report)
    return fail_on

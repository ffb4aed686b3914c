"""Graphs as dense 0/1 adjacency matrices: parsing, families, distances, enumeration.

The distance layer runs float64 matrix products whose entries are counts of
at most n, so they are exact at every size this package handles; the
eigenvalue machinery lives in the sibling modules.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

UNREACHABLE = -1  # sentinel for unreachable pairs in distance matrices

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047


class GraphError(ValueError):
    """Malformed graph input or bad generator parameters."""


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with symmetric 0/1 adjacency."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=np.int64)
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if self.adj.shape != (self.n, self.n):
            raise GraphError("adjacency shape %s does not match n=%d" % (self.adj.shape, self.n))
        if not np.array_equal(self.adj, self.adj.T):
            raise GraphError("adjacency must be symmetric")
        if np.any(np.diag(self.adj) != 0):
            raise GraphError("self-loops are not allowed")
        if not np.isin(self.adj, (0, 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.adj, other.adj)
        )

    def degrees(self):
        return self.adj.sum(axis=1)

    def is_regular(self):
        deg = self.degrees()
        return bool((deg == deg[0]).all())

    def edge_count(self):
        return int(self.adj.sum()) // 2


def graph_from_edges(n, edges):
    """Build a Graph from an iterable of (u, v) pairs."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return Graph(n, adj)


def edge_pairs(n):
    """Column-major upper-triangle pair order shared by graph6 and edge bitmasks."""
    return [(u, v) for v in range(1, n) for u in range(v)]


# ---------------------------------------------------------------------------
# graph6 (printable bytes 63..126, 6 bits per byte, column-major upper triangle)

def parse_graph6(text):
    """Decode one graph6-encoded line into a Graph.

    Accepts bytes or an ASCII string; errors name the 0-based byte offset of
    the offending byte.
    """
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphError("graph6: non-ASCII character at byte offset %d" % exc.start)
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphError("graph6: empty input")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphError(
                "graph6: byte 0x%02x at offset %d outside printable range 63..126" % (byte, off)
            )

    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise GraphError("graph6: truncated long header at offset %d" % len(data))
        n = 0
        for byte in data[1:4]:
            n = (n << 6) | (byte - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise GraphError("graph6: truncated very-long header at offset %d" % len(data))
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        pos = 8
    if n < 1:
        raise GraphError("graph6: vertex count %d out of range (offset 0)" % n)

    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    body = data[pos:]
    if len(body) < nbytes:
        raise GraphError(
            "graph6: truncated body at offset %d (n=%d needs %d data bytes)"
            % (len(data), n, nbytes)
        )
    if len(body) > nbytes:
        raise GraphError("graph6: trailing data at offset %d" % (pos + nbytes))

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
                raise GraphError("graph6: nonzero padding bit in byte at offset %d" % (pos + k))
            idx += 1
    return Graph(n, adj)


def encode_graph6(g):
    """Encode a Graph as one graph6 line (bytes, no trailing newline)."""
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = bytes([n + 63])
    elif n <= _G6_MAX_LONG:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise GraphError("graph6: n=%d exceeds the supported header range" % n)

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


# ---------------------------------------------------------------------------
# edge-list format: first token is n, then one "u v" pair per line

def parse_edge_list(text):
    """Parse the edge-list format; errors carry 1-based line numbers."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 1:
                raise GraphError("edge list line %d: expected a single vertex count" % lineno)
            try:
                n = int(tokens[0])
            except ValueError:
                raise GraphError("edge list line %d: vertex count %r is not an integer" % (lineno, tokens[0]))
            if n < 1:
                raise GraphError("edge list line %d: vertex count must be positive" % lineno)
            continue
        if len(tokens) != 2:
            raise GraphError("edge list line %d: expected 'u v', got %r" % (lineno, line.strip()))
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphError("edge list line %d: non-integer vertex in %r" % (lineno, line.strip()))
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("edge list line %d: vertex out of range 0..%d" % (lineno, n - 1))
        if u == v:
            raise GraphError("edge list line %d: self-loop at vertex %d" % (lineno, u))
        edges.append((u, v))
    if n is None:
        raise GraphError("edge list: empty input")
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# named families

def _complete(n):
    if n < 1:
        raise GraphError("complete: n must be >= 1")
    return Graph(n, np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))


def _cycle(n):
    if n < 3:
        raise GraphError("cycle: n must be >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    if n < 1:
        raise GraphError("path: n must be >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def _odd(k):
    # Kneser-style construction: (k-1)-subsets of a (2k-1)-set, disjoint = adjacent.
    if k < 2:
        raise GraphError("odd: k must be >= 2")
    verts = list(combinations(range(2 * k - 1), k - 1))
    sets = [frozenset(v) for v in verts]
    n = len(verts)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not (sets[i] & sets[j])]
    return graph_from_edges(n, edges)


def _folded_cube(m):
    # hypercube of dimension m-1 plus the antipodal perfect matching
    if m < 2:
        raise GraphError("folded_cube: m must be >= 2")
    n = 1 << (m - 1)
    full = n - 1
    edges = []
    for u in range(n):
        for b in range(m - 1):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
        v = u ^ full
        if u < v:
            edges.append((u, v))
    return graph_from_edges(n, edges)


def _prism():
    return graph_from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


FAMILIES = {
    "complete": (1, _complete),
    "cycle": (1, _cycle),
    "path": (1, _path),
    "petersen": (0, _petersen),
    "odd": (1, _odd),
    "folded_cube": (1, _folded_cube),
    "prism": (0, _prism),
}


def generate_family(family, params=()):
    """Build a named family member, e.g. generate_family('odd', [3]) -> Petersen."""
    if family not in FAMILIES:
        raise GraphError(
            "unknown family %r (choose from %s)" % (family, ", ".join(sorted(FAMILIES)))
        )
    arity, builder = FAMILIES[family]
    params = [int(p) for p in params]
    if len(params) != arity:
        raise GraphError("family %r takes %d parameter(s), got %d" % (family, arity, len(params)))
    return builder(*params)


# ---------------------------------------------------------------------------
# distances and odd girth

@dataclass
class DistanceData:
    """All-pairs hop distances; UNREACHABLE marks pairs with no path.

    odd_girth is the length of a shortest odd cycle, math.inf if there is none.
    """

    dist: np.ndarray
    diameter: int
    connected: bool
    odd_girth: object


def _expand(A, sources):
    """Level-synchronous BFS from the rows of a boolean source matrix, all at once.

    A and sources may also be stacks of matrices, one graph per leading index.

    Yields (frontier, reach) for levels k = 0, 1, ...: frontier[s] marks the
    vertices at distance k from source s and reach[s] their neighbours.  Each
    level is one float64 BLAS product; the counts it sums are at most n, so
    the > 0.5 test is exact.  Stops after the last non-empty level.
    """
    frontier = sources
    seen = sources.copy()
    while True:
        reach = frontier.astype(np.float64) @ A > 0.5
        yield frontier, reach
        frontier = reach & ~seen
        if not frontier.any():
            return
        seen |= frontier


def distance_data(g):
    """Exact distances, diameter, connectivity and odd girth from one expansion.

    All n sources expand together.  An edge inside level k of some source
    (reach & frontier) closes an odd walk of length 2k+1, so it holds an odd
    cycle of at most that length; conversely a shortest odd cycle of length
    2k+1 is isometric, so from any of its vertices the edge opposite lies
    inside level k.  The odd girth is therefore 2k+1 for the first such
    level, for disconnected graphs too.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    girth = math.inf
    levels = _expand(g.adj.astype(np.float64), np.eye(n, dtype=bool))
    for k, (frontier, reach) in enumerate(levels):
        dist[frontier] = k
        if girth == math.inf and (reach & frontier).any():
            girth = 2 * k + 1
    return DistanceData(
        dist=dist,
        diameter=k,
        connected=bool((dist != UNREACHABLE).all()),
        odd_girth=girth,
    )


def is_connected(g):
    """Connectivity by expanding from vertex 0 alone: one matrix-vector product per level."""
    source = np.zeros((1, g.n), dtype=bool)
    source[0, 0] = True
    reached = source.copy()
    for frontier, _ in _expand(g.adj.astype(np.float64), source):
        reached |= frontier
    return bool(reached.all())


def odd_girth(g):
    """Length of a shortest odd cycle; math.inf iff the graph is bipartite."""
    return distance_data(g).odd_girth


# ---------------------------------------------------------------------------
# exhaustive enumeration by edge bitmask

def graph_from_mask(n, mask):
    """Graph from an edge bitmask; bit b is the edge edge_pairs(n)[b]."""
    adj = np.zeros((n, n), dtype=np.int64)
    for b, (u, v) in enumerate(edge_pairs(n)):
        if (mask >> b) & 1:
            adj[u, v] = adj[v, u] = 1
    return Graph(n, adj)


def graph_mask(g):
    """Edge bitmask of a graph (inverse of graph_from_mask)."""
    mask = 0
    for b, (u, v) in enumerate(edge_pairs(g.n)):
        if g.adj[u, v]:
            mask |= 1 << b
    return mask


MASK_BATCH = 8192  # masks per batch; a (MASK_BATCH, 7, 7) float64 level is 3 MB


@dataclass
class MaskDistances:
    """The distance layer for a batch of edge bitmasks on n vertices, one row per mask.

    adj is the (B, n, n) float64 adjacency batch; diameter and odd_girth are
    what distance_data reports for each mask's graph (odd_girth is a float
    array, inf where there is no odd cycle).
    """

    masks: np.ndarray
    adj: np.ndarray
    connected: np.ndarray
    diameter: np.ndarray
    odd_girth: np.ndarray


def adjacency_batch(n, masks):
    """(B, n, n) float64 adjacency matrices of an int64 array of edge bitmasks."""
    pairs = np.array(edge_pairs(n), dtype=np.int64).reshape(-1, 2)
    bits = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(np.float64)
    A = np.zeros((len(masks), n, n))
    A[:, pairs[:, 0], pairs[:, 1]] = bits
    A[:, pairs[:, 1], pairs[:, 0]] = bits
    return A


def mask_distances(n, masks):
    """Connectivity, diameter and odd girth of every mask, from one batched expansion."""
    A = adjacency_batch(n, masks)
    reached = np.zeros((len(masks), n), dtype=bool)
    diameter = np.zeros(len(masks), dtype=np.int64)
    girth = np.full(len(masks), math.inf)
    sources = np.broadcast_to(np.eye(n, dtype=bool), A.shape)
    for k, (frontier, reach) in enumerate(_expand(A, sources)):
        reached |= frontier[:, 0]
        diameter[frontier.any(axis=(1, 2))] = k
        girth[np.isinf(girth) & (reach & frontier).any(axis=(1, 2))] = 2 * k + 1
    return MaskDistances(masks, A, reached.all(axis=1), diameter, girth)


def mask_batches(n, start, stop):
    """mask_distances over the masks [start, stop), MASK_BATCH at a time."""
    for lo in range(start, stop, MASK_BATCH):
        yield mask_distances(n, np.arange(lo, min(lo + MASK_BATCH, stop), dtype=np.int64))


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices, 1 <= n <= 7.

    Labeled means isomorphic duplicates appear once per labeling; the scan
    relies only on exhaustiveness, not isomorph rejection.
    """
    if not 1 <= n <= 7:
        raise GraphError("enumeration supports 1 <= n <= 7, got %d" % n)
    for batch in mask_batches(n, 0, 1 << (n * (n - 1) // 2)):
        for mask in batch.masks[batch.connected]:
            yield graph_from_mask(n, int(mask))

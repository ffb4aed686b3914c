"""Graphs as dense 0/1 adjacency matrices: parsing, families, distances, enumeration.

The distance layer is one breadth-first search, _expand, run level by level
from every vertex of a stack of graphs: a single graph for distance_data, a
batch of edge bitmasks for mask_distances.  Each level is one product with
the adjacency matrix A whose entries are counts of at most the largest
degree; distance_data keeps them as the level counts the intersection
numbers are read from.  Each graph leaves the batch once its search has
ended.  A has only k nonzeros per row, so on a large sparse graph
(neighbour_table: more than NEIGHBOUR_SUM_FLOOR vertices and more than
NEIGHBOUR_SUM_DENSITY per unit of degree) a product with A is a sum of k row
gathers (neighbour_sum), O(k n^2), in uint8 for the expansion and float64
for predistance.matrix_values; smaller or denser graphs, and every batch,
keep the float32 product, O(n^3) but in BLAS.

Two properties of an edge bitmask need no adjacency matrix at all, only a
bitwise AND with a fixed table of patterns per n.  A graph is disconnected
iff some vertex set S with 0 in S != V has no edge leaving it, that is
mask & cut(S) == 0, for one of the 2^(n-1) - 1 cuts (mask_connected).  It
has a triangle iff mask & T == T for one of the C(n, 3) triangle masks T
(mask_triangle_free).  The eigenvalue machinery lives in the sibling modules.
"""

import functools
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
        if not ((self.adj == 0) | (self.adj == 1)).all():
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
# products with a sparse adjacency matrix

# a lone graph multiplies by A as neighbour sums, in _expand and in
# predistance.matrix_values, when it has more than NEIGHBOUR_SUM_FLOOR
# vertices and more than NEIGHBOUR_SUM_DENSITY per unit of its largest degree
# k: the sums cost about k n^2 plus a fixed cost per call, a dense product
# n^3.  Sums against dense products, one BLAS thread, 2-core Xeon VM:
# distance_data took 1.31 against 0.92 ms on C_61 and 6.7 against 20.3 ms on
# C_161; distance_data and matrix_values together 8.3 against 10.0 ms on the
# folded 9-cube (n/k = 28) and 29 against 54 ms on O_6 (n/k = 77).  A uint8
# sum beats the float32 product of the expansion from n/k of about 10, a
# float64 sum the product of matrix_values only from about 30 (n = 400:
# 2.7 against 3.3 ms at n/k = 33, 3.6 against 2.8 ms at n/k = 25); a verify
# runs both.  At n/k = 2 (n = 400) a float64 sum took 43 ms against 3.0 ms
NEIGHBOUR_SUM_FLOOR = 128
NEIGHBOUR_SUM_DENSITY = 24

# bytes of the result summed at a time: a block and its gathered rows stay in
# a core's 2 MB L2 cache while the k gathers add into it.  A float64 A X at
# n = 1716 (O_7) took 221 ms as a dense product, 121 ms as k whole-matrix
# gathers, 40, 38, 39 and 51 ms in blocks of 8, 16, 32 and 64 rows
NEIGHBOUR_SUM_BLOCK = 1 << 18


def neighbour_table(adj):
    """(n, k) table of each vertex's neighbours, k the largest degree, or None.

    None unless n > NEIGHBOUR_SUM_FLOOR and n > NEIGHBOUR_SUM_DENSITY * k:
    on a smaller or denser graph a dense product is the cheaper.  Row u lists
    u's neighbours in increasing order; a row shorter than k is padded with
    n, the index of the zero row that neighbour_sum's operand carries below
    its n rows.
    """
    adj = np.asarray(adj)
    n = len(adj)
    if n <= NEIGHBOUR_SUM_FLOOR:
        return None
    deg = np.count_nonzero(adj, axis=1)
    k = deg.max()
    if n <= NEIGHBOUR_SUM_DENSITY * k:
        return None
    table = np.full((n, k), n, dtype=np.intp)
    rows, cols = np.nonzero(adj)
    table[rows, np.arange(len(rows)) - np.repeat(np.cumsum(deg) - deg, deg)] = cols
    return table


def neighbour_sum(table, X, dtype):
    """A X in dtype, for the adjacency A whose neighbour_table is table.

    X has n + 1 rows, row n zero, and so has the result: row u is the sum of
    the rows of X at u's neighbours, k gathers for a table of width k.  The
    rows are summed a block of about NEIGHBOUR_SUM_BLOCK bytes at a time.
    """
    n = len(table)
    out = np.empty(X.shape, dtype=dtype)
    out[n] = 0
    body = out[:n]
    rows = max(1, NEIGHBOUR_SUM_BLOCK // out[0].nbytes)
    part = np.empty((min(rows, n),) + X.shape[1:], dtype=X.dtype)
    for lo in range(0, n, rows):
        block, sums = table[lo:lo + rows], body[lo:lo + rows]
        sums[...] = 0
        for column in block.T:
            sums += X.take(column, axis=0, out=part[:len(block)])
    return out


# ---------------------------------------------------------------------------
# distances and odd girth

@dataclass
class DistanceData:
    """All-pairs hop distances; UNREACHABLE marks pairs with no path.

    odd_girth is the length of a shortest odd cycle, math.inf if there is none.
    level_counts[k] is the n x n matrix M_k = A_k A of the expansion's level
    k, k = 0..diameter: M_k[u, v] = |Gamma(v) cap Gamma_k(u)|, the number of
    neighbours of v at distance k from u.  A count is at most the largest
    degree, so it is exact in either dtype: float32 from a dense product, or,
    on a graph that takes the neighbour sums (neighbour_table), the smallest
    unsigned integer type that holds the largest degree (uint8 below degree
    256), a quarter of the memory.  Either way M_k is stored in the same
    orientation, so the intersection numbers and witnesses read off it do not
    depend on the path.
    """

    dist: np.ndarray
    diameter: int
    connected: bool
    odd_girth: object
    level_counts: list


def _expand(A):
    """Level-synchronous BFS from every vertex of a (B, n, n) stack of adjacency matrices.

    Yields (live, frontier, reach, counts) for levels k = 0, 1, ...: live
    indexes the graphs whose level k is not empty, frontier[j, u] marks the
    vertices at distance k from u in graph live[j], counts[j] = F_k A, so
    counts[j, u, v] is the number of neighbours of v at distance k from u, and
    reach[j] = counts[j] > 0 marks the neighbours of the level.

    Level 0 is the identity, so its counts are A itself, with no product.  Each
    later level is one batched float32 product whose entries count paths of at
    most n < 2^24, so they are exact and the > 0 test is too.  A graph leaves
    the batch after its last non-empty level, so a batch does as many products
    per level as it has searches still running; the expansion ends when none
    is left.

    A lone graph that neighbour_table accepts takes no dense product.  F_k is
    symmetric, so F_k A = (A F_k)^T, and A F_k is a neighbour_sum of the rows
    of F_k, held with the table's zero row below them.  The counts are a
    contiguous copy of that sum's transpose, in the smallest unsigned dtype
    that holds the largest degree: the ops on them and on reach then read
    one layout, where a transposed view mixed with row-major operands made
    each several times slower.
    """
    n = A.shape[-1]
    live = np.arange(len(A))
    frontier = np.eye(n, dtype=bool)[None].repeat(len(A), axis=0)
    seen = frontier.copy()
    table = neighbour_table(A[0]) if len(A) == 1 else None
    if table is None:
        A = counts = np.asarray(A, dtype=np.float32)
    else:
        counts = np.asarray(A, dtype=np.min_scalar_type(table.shape[1]))
    while True:
        reach = counts > 0
        yield live, frontier, reach, counts
        if table is None:
            frontier = reach > seen  # reach & ~seen
        else:
            padded = np.zeros((n + 1, n), dtype=bool)  # row n is the table's zero row
            frontier = np.greater(reach, seen, out=padded[None, :n])
        if not frontier.any():
            return
        seen |= reach
        if table is not None:
            sums = neighbour_sum(table, padded.view(np.uint8), counts.dtype)
            counts = np.ascontiguousarray(sums[None, :n].transpose(0, 2, 1))
            continue
        level = frontier.astype(np.float32)
        if len(live) > 1:  # a lone graph with a non-empty level is still live
            # per-graph level sizes: a matrix-vector product is several times
            # faster than any() over the short rows of a (B, n * n) array
            alive = level.reshape(len(live), n * n) @ np.ones(n * n, dtype=np.float32) > 0.5
            if not alive.all():
                keep = np.flatnonzero(alive)
                live, frontier, seen, A = (x.take(keep, axis=0) for x in (live, frontier, seen, A))
                level = frontier.astype(np.float32)
        counts = level @ A


def distance_data(g):
    """Exact distances, diameter, connectivity, odd girth and level counts from one expansion.

    All n sources expand together, as a batch of one graph, and each level's
    product F_k A is kept as level_counts[k].  An edge inside level k of some
    source (reach & frontier) closes an odd walk of length 2k+1, so it holds
    an odd cycle of at most that length; conversely a shortest odd cycle of
    length 2k+1 is isometric, so from any of its vertices the edge opposite
    lies inside level k.  The odd girth is therefore 2k+1 for the first such
    level, for disconnected graphs too.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    girth = math.inf
    levels = []
    for k, (_, frontier, reach, counts) in enumerate(_expand(g.adj[None])):
        dist[frontier[0]] = k
        levels.append(counts[0])
        if girth == math.inf and (reach & frontier).any():
            girth = 2 * k + 1
    return DistanceData(
        dist=dist,
        diameter=k,
        connected=bool((dist != UNREACHABLE).all()),
        odd_girth=girth,
        level_counts=levels,
    )


def odd_girth(g):
    """Length of a shortest odd cycle; math.inf iff the graph is bipartite."""
    return distance_data(g).odd_girth


# ---------------------------------------------------------------------------
# exhaustive enumeration by edge bitmask

def graph_from_mask(n, mask):
    """Graph from an edge bitmask on 1 <= n <= 11 vertices; bit b is the edge edge_pairs(n)[b]."""
    if not 1 <= n <= 11:
        raise GraphError("edge bitmasks support 1 <= n <= 11, got %d" % n)
    return Graph(n, adjacency_batch(n, np.array([mask], dtype=np.int64))[0])


def graph_mask(g):
    """Edge bitmask of a graph (inverse of graph_from_mask)."""
    mask = 0
    for b, (u, v) in enumerate(edge_pairs(g.n)):
        if g.adj[u, v]:
            mask |= 1 << b
    return mask


# masks per batch: the cut and triangle tests make one numpy call per pattern
# (98 at n=7) whatever the batch size, so large batches spread that cost; only
# about 4.4% of an n=7 batch (some 1,450 masks) reaches the distance layer, so
# its float32 levels still fit a core's L2 cache.  The n=7 screen_range took
# 0.58 s with 8192 masks, 0.44 s with 16384, 0.42 s with 32768 and 0.53 s with
# 131072 (medians of 7 alternating runs, 2-core Xeon VM, 2 MB of L2 per core)
MASK_BATCH = 32768


@functools.lru_cache(maxsize=None)
def _patterns(n):
    """(cuts, triangles): read-only int64 arrays of edge bitmasks on n vertices, 1 <= n <= 11.

    cuts holds, for each vertex set S with 0 in S != V, the edges with one end
    in S: 2^(n-1) - 1 masks.  triangles holds the C(n, 3) triangles.  Above
    n = 11 the n(n-1)/2 pairs no longer fit in the 63 bits of a mask.
    """
    if not 1 <= n <= 11:
        raise GraphError("edge bitmasks support 1 <= n <= 11, got %d" % n)
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


def mask_connected(n, masks):
    """Connectivity of each edge bitmask in an int64 array: no cut is empty."""
    masks = np.asarray(masks, dtype=np.int64)
    connected = np.ones(len(masks), dtype=bool)
    anded = np.empty_like(masks)
    for cut in _patterns(n)[0]:
        connected &= np.bitwise_and(masks, cut, out=anded) != 0
    return connected


def mask_triangle_free(n, masks):
    """Whether each edge bitmask in an int64 array holds no triangle."""
    masks = np.asarray(masks, dtype=np.int64)
    free = np.ones(len(masks), dtype=bool)
    anded = np.empty_like(masks)
    for triangle in _patterns(n)[1]:
        free &= np.bitwise_and(masks, triangle, out=anded) != triangle
    return free


@dataclass
class MaskDistances:
    """The distance layer for a batch of edge bitmasks on n vertices, one row per mask.

    adj is the (B, n, n) float64 adjacency batch; diameter and odd_girth are
    what distance_data reports for each mask's graph (odd_girth is a float
    array, inf where there is no odd cycle).  Connectivity comes from mask_connected.
    """

    adj: np.ndarray
    diameter: np.ndarray
    odd_girth: np.ndarray


def adjacency_batch(n, masks):
    """(B, n, n) float64 adjacency matrices of an int64 array of non-negative edge bitmasks.

    One gather: the masks' 64 bits are unpacked, least significant first, and
    entry (u, v), u < v, reads bit v(v-1)/2 + u, the index of the pair in
    edge_pairs(n) (n <= 11, so the pairs fit in 63 bits).  The diagonal reads
    bit 63, which is 0 in a non-negative mask.
    """
    lo, hi = np.sort(np.indices((n, n)), axis=0)
    bit = np.where(lo == hi, 63, hi * (hi - 1) // 2 + lo)
    raw = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    return bits[:, bit].astype(np.float64)


def mask_distances(n, masks):
    """Diameter and odd girth of every mask: one batched expansion.

    Each mask's row is written at the levels its search is live: its diameter
    is the last one, and its odd girth 2k+1 at the first level k with an edge
    inside the level, as in distance_data.
    """
    A = adjacency_batch(n, masks)
    diameter = np.zeros(len(masks), dtype=np.int64)
    girth = np.full(len(masks), math.inf)
    ones = np.ones(n * n, dtype=np.float32)
    for k, (live, frontier, reach, _) in enumerate(_expand(A)):
        diameter[live] = k
        closed = live[(reach & frontier).reshape(len(live), n * n) @ ones > 0.5]
        girth[closed] = np.minimum(girth[closed], 2 * k + 1)
    return MaskDistances(A, diameter, girth)


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices, 1 <= n <= 7.

    Labeled means isomorphic duplicates appear once per labeling; the scan
    relies only on exhaustiveness, not isomorph rejection.
    """
    if not 1 <= n <= 7:
        raise GraphError("enumeration supports 1 <= n <= 7, got %d" % n)
    total = 1 << (n * (n - 1) // 2)
    for lo in range(0, total, MASK_BATCH):
        masks = np.arange(lo, min(lo + MASK_BATCH, total), dtype=np.int64)
        for mask in masks[mask_connected(n, masks)]:
            yield graph_from_mask(n, int(mask))

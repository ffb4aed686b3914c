"""Graphs as dense 0/1 adjacency matrices: parsing, families, distances, enumeration.

graph6 numbers the pairs (u, v), u < v, column by column, (u, v) at
v(v-1)/2 + u (edge_pairs; edge bitmasks use the same order).  That is the
row-major order of the strict lower triangle np.tri(n, k=-1), so one boolean
mask places every decoded bit in the adjacency matrix (parse_graph6) or reads
every bit off it (encode_graph6): the codec is a few whole-array operations,
with no step per bit.

The distance layer is one breadth-first search, _expand, run level by level
from every vertex of a stack of graphs: a single graph for distance_data, a
batch of edge bitmasks for mask_distances.  Each level is one product with
the adjacency matrix A whose entries are counts of at most the largest
degree; distance_data keeps them as the level counts the intersection
numbers are read from.  The batch expands until no graph in it has a
non-empty level.  A has only k nonzeros per row, so on a large sparse graph
(neighbour_table: more than NEIGHBOUR_SUM_FLOOR vertices and more than
NEIGHBOUR_SUM_DENSITY per unit of degree) a product with A is a sum of k row
gathers (neighbour_sum), O(k n^2): in uint8 for the expansion, in the
smallest unsigned type that holds them for the walk counts
(predistance.closed_walks; in Python integers on any graph whose walk counts
outgrow float64, with the table of neighbour_rows), in float64 for
predistance.matrix_values.
distance_data builds that table once and hands it on in its DistanceData.
Smaller or denser graphs, and every batch, keep the dense product, O(n^3)
but in BLAS.

Connectivity, triangles and bipartiteness of an edge bitmask on n <= 7
vertices need no adjacency matrix, only a table per graph on fewer
vertices: the vertex-extension step of orderly generation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A mask on n
vertices is a graph on the first n - 1 (its low (n-1)(n-2)/2 bits) plus the
neighbour set S of vertex n - 1 (its top n - 1 bits).  The table of every
graph on m <= 6 vertices (_table, built once per m from the table of m - 1
with the same step) holds each vertex's component and colour class as
vertex bitmasks, and a triangle-free and a bipartite flag.  Adding vertex j
joined to S (_extend), the graph is connected iff the components of S's
vertices and j cover every vertex; triangle-free iff it was and no edge lies
inside S; bipartite iff it was and S meets each component in one colour
class.  mask_blocks walks a range of masks in blocks of one S, a slice of
the table each, and gives every mask in the range its three flags.  The
eigenvalue machinery lives in the sibling modules.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

UNREACHABLE = -1  # sentinel for unreachable pairs in distance matrices

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)  # a 6-bit group, high bit first
_G6_WEIGHTS.setflags(write=False)


class GraphError(ValueError):
    """Malformed graph input or bad generator parameters."""


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with symmetric 0/1 adjacency."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        adj = self.adj = np.asarray(self.adj, dtype=np.int64)
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if adj.shape != (self.n, self.n):
            raise GraphError("adjacency shape %s does not match n=%d" % (adj.shape, self.n))
        if not (adj == adj.T).all():
            raise GraphError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise GraphError("self-loops are not allowed")
        if (adj & -2).any():  # any bit but the lowest: an entry other than 0 or 1
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
    the offending byte.  The body is decoded as one array: each byte less 63
    is split into its 6 bits, most significant first, and bit b is the pair
    edge_pairs(n)[b], which is entry b of the strict lower triangle
    np.tri(n, k=-1) in row-major order.  The bits past n(n-1)/2 pad the last
    byte and must be zero.
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
    # a byte below 63 wraps around, so > 63 marks every byte outside 63..126
    raw = np.frombuffer(data, dtype=np.uint8) - np.uint8(63)
    outside = raw > 63
    if outside.any():
        off = int(outside.argmax())
        raise GraphError(
            "graph6: byte 0x%02x at offset %d outside printable range 63..126" % (data[off], off)
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
    body = raw[pos:]
    if len(body) < nbytes:
        raise GraphError(
            "graph6: truncated body at offset %d (n=%d needs %d data bytes)"
            % (len(data), n, nbytes)
        )
    if len(body) > nbytes:
        raise GraphError("graph6: trailing data at offset %d" % (pos + nbytes))

    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()  # each byte's low 6 bits
    if bits[nbits:].any():  # fewer than 6 padding bits, all in the last byte
        raise GraphError("graph6: nonzero padding bit in byte at offset %d" % (pos + nbytes - 1))
    lower = np.tri(n, k=-1, dtype=bool)
    adj = np.zeros((n, n), dtype=np.int64)
    # adj.T[lower] is the upper triangle in the same pair order: no n x n temporary
    adj[lower] = adj.T[lower] = bits[:nbits]
    return Graph(n, adj)


def encode_graph6(g):
    """Encode a Graph as one graph6 line (bytes, no trailing newline).

    The pairs of edge_pairs(n) are read as one array, the strict lower
    triangle np.tri(n, k=-1) of the adjacency in row-major order, zero-padded
    to a multiple of 6 bits; each group of 6, most significant first, plus 63
    is one byte.
    """
    n = g.n
    if n <= _G6_MAX_SHORT:
        head = bytes([n + 63])
    elif n <= _G6_MAX_LONG:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise GraphError("graph6: n=%d exceeds the supported header range" % n)

    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    bits = np.zeros(6 * nbytes, dtype=np.uint8)
    bits[:nbits] = g.adj[np.tri(n, k=-1, dtype=bool)]
    return head + (bits.reshape(nbytes, 6) @ _G6_WEIGHTS + np.uint8(63)).tobytes()


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
# predistance.closed_walks and matrix_values, when it has more than
# NEIGHBOUR_SUM_FLOOR vertices and more than NEIGHBOUR_SUM_DENSITY per unit of
# its largest degree k: the sums cost about k n^2 plus a fixed cost per call,
# a dense product n^3.  Sums against dense products, one BLAS thread, 2-core
# Xeon VM: distance_data took 1.31 against 0.92 ms on C_61 and 6.7 against 20.3 ms on
# C_161; distance_data and matrix_values together 8.3 against 10.0 ms on the
# folded 9-cube (n/k = 28) and 29 against 54 ms on O_6 (n/k = 77).  A uint8
# sum beats the float32 product of the expansion from n/k of about 10, a
# float64 sum the product of matrix_values only from about 30 (n = 400:
# 2.7 against 3.3 ms at n/k = 33, 3.6 against 2.8 ms at n/k = 25).  At
# n/k = 2 (n = 400) a float64 sum took 43 ms against 3.0 ms.  A met verify
# runs the expansion and the walk counts, whose sums are unsigned integers
# too: on O_6 a uint16 sum took 0.44 ms against 1.7 ms in float64
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
    if n <= NEIGHBOUR_SUM_DENSITY * deg.max():
        return None
    return neighbour_rows(adj, deg)


def neighbour_rows(adj, deg=None):
    """neighbour_table's (n, k) table whatever n and k; deg is A's degrees, if known."""
    adj = np.asarray(adj)
    n = len(adj)
    if deg is None:
        deg = np.count_nonzero(adj, axis=1)
    table = np.full((n, deg.max()), n, dtype=np.intp)
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

    dist is in the smallest signed type that holds -n, int8 up to 128
    vertices and int16 beyond: a distance is less than n, and UNREACHABLE is
    -1.  Its readers only compare it, so no arithmetic on it can overflow.

    odd_girth is the length of a shortest odd cycle, math.inf if there is none.
    level_counts[k] is the n x n matrix M_k = A_k A of the expansion's level
    k, k = 0..diameter: M_k[u, v] = |Gamma(v) cap Gamma_k(u)|, the number of
    neighbours of v at distance k from u.  A count is at most the largest
    degree, so it is exact in either dtype: float32 from a dense product, or,
    on a graph that takes the neighbour sums (neighbour_table), the smallest
    unsigned integer type that holds the largest degree (uint8 below degree
    256), a quarter of the memory.  Either way M_k is stored in the same
    orientation, so the intersection numbers and witnesses read off it do not
    depend on the path.  neighbour_table is the graph's neighbour_table (None
    when a dense product is the cheaper), built once for every product with A
    that follows the expansion.
    """

    dist: np.ndarray
    diameter: int
    connected: bool
    odd_girth: object
    level_counts: list
    neighbour_table: np.ndarray = None


def _expand(A, table=None):
    """Level-synchronous BFS from every vertex of a (B, n, n) stack of adjacency matrices.

    Yields (frontier, reach, counts) for levels k = 0, 1, ...: frontier[j, u]
    marks the vertices at distance k from u in graph j (none once graph j's
    search has ended), counts[j] = F_k A, so counts[j, u, v] is the number of
    neighbours of v at distance k from u, and reach[j] = counts[j] > 0 marks
    the neighbours of the level.

    Level 0 is the identity, so its counts are A itself, with no product.  Each
    later level is one batched float32 product whose entries count paths of at
    most n < 2^24, so they are exact and the > 0 test is too.  The expansion
    ends after the last level at which some graph of the stack is not empty.

    A lone graph passed with its neighbour_table takes no dense product.  F_k is
    symmetric, so F_k A = (A F_k)^T, and A F_k is a neighbour_sum of the rows
    of F_k, held with the table's zero row below them.  The counts are a
    contiguous copy of that sum's transpose, in the smallest unsigned dtype
    that holds the largest degree: the ops on them and on reach then read
    one layout, where a transposed view mixed with row-major operands made
    each several times slower.
    """
    n = A.shape[-1]
    frontier = np.eye(n, dtype=bool)[None].repeat(len(A), axis=0)
    seen = frontier.copy()
    if table is None:
        A = counts = np.asarray(A, dtype=np.float32)
    else:
        counts = np.asarray(A, dtype=np.min_scalar_type(table.shape[1]))
    while True:
        reach = counts > 0
        yield frontier, reach, counts
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
        counts = frontier.astype(np.float32) @ A


def distance_data(g):
    """Exact distances, diameter, connectivity, odd girth and level counts from one expansion.

    All n sources expand together, as a batch of one graph (with its
    neighbour_table, kept in the result), and each level's
    product F_k A is kept as level_counts[k].  An edge inside level k of some
    source (reach & frontier) closes an odd walk of length 2k+1, so it holds
    an odd cycle of at most that length; conversely a shortest odd cycle of
    length 2k+1 is isometric, so from any of its vertices the edge opposite
    lies inside level k.  The odd girth is therefore 2k+1 for the first such
    level, for disconnected graphs too.
    """
    n = g.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.min_scalar_type(-n))  # a distance is < n
    girth = math.inf
    levels = []
    table = neighbour_table(g.adj)
    for k, (frontier, reach, counts) in enumerate(_expand(g.adj[None], table)):
        np.putmask(dist, frontier[0], k)  # a quarter faster than dist[frontier[0]] = k
        levels.append(counts[0])
        if girth == math.inf and (reach & frontier).any():
            girth = 2 * k + 1
    return DistanceData(
        dist=dist,
        diameter=k,
        connected=bool((dist != UNREACHABLE).all()),
        odd_girth=girth,
        level_counts=levels,
        neighbour_table=table,
    )


def odd_girth(g):
    """Length of a shortest odd cycle; math.inf iff the graph is bipartite."""
    return distance_data(g).odd_girth


# ---------------------------------------------------------------------------
# exhaustive enumeration by edge bitmask

def _mask_range_error(n, mask):
    return GraphError(
        "edge bitmask %d is outside [0, 2^%d) for n=%d" % (mask, n * (n - 1) // 2, n)
    )


def graph_from_mask(n, mask):
    """Graph from an edge bitmask on 1 <= n <= 11 vertices; bit b is the edge edge_pairs(n)[b]."""
    if not 1 <= n <= 11:
        raise GraphError("edge bitmasks support 1 <= n <= 11, got %d" % n)
    if not 0 <= mask < 1 << (n * (n - 1) // 2):
        raise _mask_range_error(n, mask)
    return Graph(n, adjacency_batch(n, np.array([mask], dtype=np.int64))[0])


def graph_mask(g):
    """Edge bitmask of a graph (inverse of graph_from_mask)."""
    mask = 0
    for b, (u, v) in enumerate(edge_pairs(g.n)):
        if g.adj[u, v]:
            mask |= 1 << b
    return mask


class _Table(NamedTuple):
    """Graphs on m vertices, entry i of each array for the graph of mask low[i].

    comp[u] is the component of vertex u and same[u] the vertices of that
    component coloured as u in a 2-colouring, both as vertex bitmasks (uint8,
    one row per vertex; same means nothing where the graph is not
    bipartite).  pairs[S] is the edge bitmask of the pairs inside the vertex
    set S, for each of the 2^m sets: the edges a vertex joined to S closes
    into triangles.
    """

    comp: np.ndarray
    same: np.ndarray
    triangle_free: np.ndarray
    bipartite: np.ndarray
    low: np.ndarray
    pairs: np.ndarray

    def rows(self, index):
        """The graphs at index, a slice: views of the arrays."""
        return _Table(self.comp[:, index], self.same[:, index], self.triangle_free[index],
                      self.bipartite[index], self.low[index], self.pairs)


def _extend(rows, S):
    """Join a new vertex j = len(rows.comp) to the vertex set S in each graph of rows.

    Returns (reach, side, triangle_free, bipartite) of the graphs on j + 1
    vertices.  reach is the component of j: bit j and the components of the
    vertices of S, so a graph is connected iff reach holds all j + 1
    vertices.  It is triangle-free iff it was before and no edge lies
    inside S, low & pairs[S] == 0.  It is bipartite iff it was before and S
    meets every component in one colour class, S & comp[u] & ~same[u] == 0
    for each u in S; side, the union of same[u] over u in S, is then the
    colour class of S, and reach ^ side that of j.
    """
    j = len(rows.comp)
    reach = np.full(len(rows.low), 1 << j, dtype=np.uint8)
    side = np.zeros_like(reach)
    other = np.zeros_like(reach)  # the union of comp[u] & ~same[u] over u in S
    for u in range(j):
        if S >> u & 1:
            reach |= rows.comp[u]
            side |= rows.same[u]
            other |= rows.comp[u] ^ rows.same[u]
    triangle_free = (rows.low & rows.pairs[S]) == 0
    triangle_free &= rows.triangle_free
    other &= S
    bipartite = other == 0
    bipartite &= rows.bipartite
    return reach, side, triangle_free, bipartite


@functools.lru_cache(maxsize=None)
def _table(m):
    """The read-only _Table of every graph on m <= 6 vertices, row L for mask L.

    A mask on m vertices is a graph on the first m - 1 (its low
    e = (m-1)(m-2)/2 bits) plus the neighbour set S of vertex m - 1 (its top
    m - 1 bits).  So the rows with one S are the block [S 2^e, (S+1) 2^e),
    the whole table of m - 1 vertices extended by S, and each block is
    written in place into arrays of the final size.  m = 0 is the one empty
    graph: connected to nothing, triangle-free and bipartite.
    """
    if m == 0:
        none = np.zeros((0, 1), dtype=np.uint8)
        table = _Table(none, none, np.ones(1, dtype=bool), np.ones(1, dtype=bool),
                       np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32))
    else:
        prev = _table(m - 1)
        j, size = m - 1, len(prev.low)
        comp = np.empty((m, size << j), dtype=np.uint8)
        same = np.empty_like(comp)
        triangle_free = np.empty(size << j, dtype=bool)
        bipartite = np.empty_like(triangle_free)
        for S in range(1 << j):
            block = slice(S * size, (S + 1) * size)
            reach, side, triangle_free[block], bipartite[block] = _extend(prev, S)
            rest = reach ^ side  # the colour class of j
            comp[j, block], same[j, block] = reach, rest
            for v in range(j):
                joined = (reach >> v) & 1 == 1
                comp[v, block] = np.where(joined, reach, prev.comp[v])
                colour = np.where((side >> v) & 1 == 1, side, rest)
                same[v, block] = np.where(joined, colour, prev.same[v])
        # the pair (u, j) is bit j(j-1)/2 + u, so S + 2^j adds S << j(j-1)/2
        inner = np.arange(1 << j, dtype=np.int32) << (j * (j - 1) // 2)
        pairs = np.concatenate([prev.pairs, prev.pairs | inner])
        table = _Table(comp, same, triangle_free, bipartite,
                       np.arange(size << j, dtype=np.int32), pairs)
    for array in table:
        array.setflags(write=False)
    return table


def mask_blocks(n, start, stop):
    """Yield (lo, connected, triangle_free, bipartite) for the masks [start, stop) on n vertices.

    1 <= n <= 7.  Entry i of each bool array is the property of mask lo + i.
    A block holds the masks with one neighbour set S of vertex n - 1, a slice
    of the table of n - 1 vertices extended by S (_extend), so a block is
    2^((n-1)(n-2)/2) masks, less where it meets start or stop.
    """
    if not 1 <= n <= 7:
        raise GraphError("mask tables support 1 <= n <= 7, got %d" % n)
    if not 0 <= start <= stop <= 1 << (n * (n - 1) // 2):
        raise GraphError("mask range [%d, %d) is outside [0, 2^%d) for n=%d"
                         % (start, stop, n * (n - 1) // 2, n))
    if start == stop:
        return
    table = _table(n - 1)
    size = len(table.low)
    for S in range(start // size, -(-stop // size)):
        base = S * size
        index = slice(max(start - base, 0), min(stop - base, size))
        reach, _, triangle_free, bipartite = _extend(table.rows(index), S)
        yield base + index.start, reach == (1 << n) - 1, triangle_free, bipartite


@functools.lru_cache(maxsize=None)
def _pair_bits(n):
    """Read-only (n, n) index of each pair's bit in an edge bitmask, 63 on the diagonal."""
    lo, hi = np.sort(np.indices((n, n)), axis=0)
    bit = np.where(lo == hi, 63, hi * (hi - 1) // 2 + lo)
    bit.setflags(write=False)
    return bit


def adjacency_batch(n, masks):
    """(B, n, n) float64 adjacency matrices of an int64 array of non-negative edge bitmasks.

    One gather: the masks' 64 bits are unpacked, least significant first, and
    entry (u, v), u < v, reads bit v(v-1)/2 + u, the index of the pair in
    edge_pairs(n) (n <= 11, so the pairs fit in 63 bits).  The diagonal reads
    bit 63, which is 0 in a non-negative mask.
    """
    raw = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    return bits[:, _pair_bits(n)].astype(np.float64)


def mask_distances(n, masks):
    """(diameter, odd_girth) of every edge bitmask on n vertices: one batched expansion.

    Both are what distance_data reports for the mask's graph; odd_girth is a
    float array, inf where there is no odd cycle.  A mask's diameter is the
    last level k at which its frontier is not empty, and its odd girth 2k+1
    at the first level k with an edge inside the level.  Connectivity comes
    from mask_blocks.
    """
    diameter = np.zeros(len(masks), dtype=np.int64)
    girth = np.full(len(masks), math.inf)
    # a matrix-vector product is several times faster than any() over the
    # short rows of a (B, n * n) array
    ones = np.ones(n * n, dtype=np.float32)
    for k, (frontier, reach, _) in enumerate(_expand(adjacency_batch(n, masks))):
        diameter[frontier.reshape(len(masks), n * n) @ ones > 0.5] = k
        closed = (reach & frontier).reshape(len(masks), n * n) @ ones > 0.5
        girth[closed] = np.minimum(girth[closed], 2 * k + 1)
    return diameter, girth


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices, 1 <= n <= 7.

    Labeled means isomorphic duplicates appear once per labeling; the scan
    relies only on exhaustiveness, not isomorph rejection.
    """
    if not 1 <= n <= 7:
        raise GraphError("enumeration supports 1 <= n <= 7, got %d" % n)
    for lo, connected, _, _ in mask_blocks(n, 0, 1 << (n * (n - 1) // 2)):
        for mask in lo + np.flatnonzero(connected):
            yield graph_from_mask(n, int(mask))

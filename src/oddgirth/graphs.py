"""Graphs as dense 0/1 adjacency matrices: parsing, families, distances, enumeration.

A Graph holds its adjacency as uint8, one byte an entry, validated in the
input's dtype before it is narrowed; a caller that does arithmetic on it
casts it first.  The generators, the codecs and the bitmask builders write
uint8 directly.

graph6 numbers the pairs (u, v), u < v, column by column, (u, v) at
v(v-1)/2 + u (edge_pairs; edge bitmasks use the same order).  That is the
row-major order of the strict lower triangle np.tri(n, k=-1), so one boolean
mask places every decoded bit in the adjacency matrix (parse_graph6) or reads
every bit off it (encode_graph6): the codec is a few whole-array operations,
with no step per bit.

The distance layer of a lone graph is one breadth-first search, _expand,
run level by level from every vertex at once (distance_data).  Each level is
one product with the adjacency matrix A whose entries are counts of at most
the largest degree, and distance_data reduces them at once to the
intersection numbers of the levels they belong to (the count at a first
pair and the first pair that differs), so no count matrix outlives its next
level: the expansion works in a fixed set of n x n buffers.  Its levels are
the distance-i indicators A_i (distance_levels), so no distance matrix is kept.

Every product with A, the expansion's, quick_reject's A A, the walk counts'
powers (predistance.closed_walks) and p_i(A) (predistance.matrix_values),
goes through one Product per graph, which distance_data builds and hands on
in its DistanceData.  A has only k nonzeros per row, so on a large sparse
graph (more than NEIGHBOUR_SUM_FLOOR vertices and more than
NEIGHBOUR_SUM_DENSITY per unit of degree) a product is a sum of k row
gathers (neighbour_sum), O(k n^2); smaller or denser graphs keep the dense
product, O(n^3) but in BLAS.  Product also picks the dtype in which each
product's integer entries are exact.  Most graphs that cannot meet the
theorem's hypothesis are told without the distance layer, from one BFS from
vertex 0 and a triangle test (quick_reject).

Connectivity, triangles and bipartiteness of an edge bitmask on n <= 7
vertices need no adjacency matrix, only a table per graph on fewer
vertices: the vertex-extension step of orderly generation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A mask on n
vertices is a graph on the first n - 1 (its low (n-1)(n-2)/2 bits) plus the
neighbour set S of vertex n - 1 (its top n - 1 bits).  The table of every
graph on m <= 6 vertices (_table, built once per m from the table of m - 1
with the same step) holds each vertex's component and, in a 2-colouring,
the vertices of that component coloured unlike it, as vertex bitmasks, one
uint8 row per vertex (two arrays of 196 KB at m = 6), and a triangle-free
and a bipartite flag.  Adding vertex j joined to S (_extensions), the graph
is connected iff the components of S's vertices and j cover every vertex;
triangle-free iff it was and no edge lies inside S; bipartite iff it was and
S misses the union of its vertices' unlike vertices, which with j is then
j's colour class.  The walk takes S in ascending order and forms each
block's unions over S from those of the block of S & (S - 1), S without its
lowest vertex, which it walked earlier and holds on a stack: one OR a union
a block.  mask_blocks walks a range of masks in blocks of one S, a slice of
the table each, and gives every mask in the range its three flags; _table's
build is the same walk over all of them.

A relabeling of the vertices by a permutation p moves the pair (u, v) to
(p[u], p[v]), so it moves each bit of an edge bitmask to another bit.  The
orbit table of n <= 8 vertices (_orbit_table, built on first use and
cached) holds, for each of the n(n-1)/2 pairs, one contiguous int32 row of
1 << (the bit the pair moves to) under each of the n! permutations: 423 KB
at n = 7 and 4.5 MB at n = 8.  The orbit of a mask under S_n (mask_orbit),
the masks of every graph isomorphic to its graph, is then the OR of the rows
of its set bits: n!/|Aut G| distinct masks once sorted, the
labeled/unlabeled relation of the same paper.  The
scan decides the hypothesis once per orbit of the masks it expands and
verifies one hit per orbit.  The eigenvalue machinery lives in the sibling modules.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations, count, permutations
from typing import NamedTuple

import numpy as np

_G6_HEADER = b">>graph6<<"  # optional, at the start of a file
_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
_G6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)  # a 6-bit group, high bit first
_G6_WEIGHTS.setflags(write=False)
_G6_REVERSED = bytes(63 + int("{:06b}".format(g)[::-1], 2) for g in range(64))  # 6 bits reversed, + 63


class GraphError(ValueError):
    """Malformed graph input or bad generator parameters."""


@dataclass(eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with symmetric 0/1 adjacency.

    adj is stored as uint8, one byte an entry: a caller that does arithmetic
    on it casts it first, since a uint8 product or sum wraps at 256.  The
    input is validated in its own dtype, and only then narrowed, so an entry
    such as -1, 2, 256 or 0.5 is rejected, never wrapped or truncated into
    a 0/1 one.  The checks run in the order n, shape, symmetry, diagonal,
    entries.  Symmetry is checked in strips of 512 rows: strip i's rows from
    column i on are compared with the transpose of the same columns, so the
    upper triangle is checked against the lower without an n x n temporary
    (a uint8 O_8, n = 6,435, is validated in 0.12 s, where the whole-matrix
    adj == adj.T alone takes 0.21 s, one core of a 2-core Xeon VM).
    """

    n: int
    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj)
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if adj.shape != (self.n, self.n):
            raise GraphError("adjacency shape %s does not match n=%d" % (adj.shape, self.n))
        for i in range(0, self.n, 512):
            j = i + 512
            if not np.array_equal(adj[i:j, i:], adj[i:, i:j].T):
                raise GraphError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise GraphError("self-loops are not allowed")
        if not _is_01(adj):
            raise GraphError("adjacency entries must be 0 or 1")
        self.adj = adj.astype(np.uint8, copy=False)

    @classmethod
    def _trusted(cls, n, adj):
        """The Graph of an (n, n) uint8 adjacency that is valid by construction, unchecked."""
        g = object.__new__(cls)
        g.n, g.adj = n, adj
        return g

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.adj, other.adj)
        )

    def degrees(self):
        return self.adj.sum(axis=1, dtype=np.int64)

    def is_regular(self):
        deg = self.degrees()
        return bool((deg == deg[0]).all())

    def edge_count(self):
        return int(self.adj.sum(dtype=np.int64)) // 2


def _is_01(adj):
    """Whether every entry of adj is 0 or 1, read in adj's own dtype.

    An integer entry is read as unsigned of its width, so a negative one is
    a large value and one comparison makes only a boolean temporary.  A
    bool entry is always 0 or 1; any other, a float's included, is compared
    with 0 and with 1.
    """
    kind = adj.dtype.kind
    if kind == "b":
        return True
    if kind in "iu":
        return not (adj.view("u%d" % adj.itemsize) > 1).any()
    return not ((adj != 0) & (adj != 1)).any()


def graph_from_edges(n, edges):
    """A Graph from (u, v) pairs of integer vertices in 0..n-1; any other pair is a GraphError."""
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        if not all(isinstance(x, numbers.Integral) and 0 <= x < n for x in (u, v)):
            raise GraphError("edge (%r, %r): vertex outside 0..%d" % (u, v, n - 1))
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
    lower = _strict_lower(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    # adj.T[lower] is the upper triangle in the same pair order: no n x n temporary
    adj[lower] = adj.T[lower] = bits[:nbits]
    return Graph._trusted(n, adj)  # symmetric, 0/1 and loop-free as written


def _strict_lower(n):
    """np.tri(n, k=-1) as a bool mask, up to n = 256 a read-only view of one cached mask.

    The top-left n x n block of np.tri(256, k=-1) is np.tri(n, k=-1), so
    the codecs of every n <= 256 share one 64 kB mask, built on first use.
    """
    return _lower_256()[:n, :n] if n <= 256 else np.tri(n, k=-1, dtype=bool)


@functools.cache
def _lower_256():
    lower = np.tri(256, k=-1, dtype=bool)
    lower.setflags(write=False)
    return lower


def graph6_lines(raw):
    """[(lineno, line)] of the non-blank lines of a graph6 file's bytes, each stripped.

    Lines are numbered from 1, blank ones included.  The optional header
    >>graph6<< of nauty's format is dropped from the start of the file only;
    on any later line it is data, and parse_graph6 names its first byte.
    """
    if raw.startswith(_G6_HEADER):
        raw = raw[len(_G6_HEADER):]
    lines = (ln.strip() for ln in raw.splitlines())
    return [(i, ln) for i, ln in enumerate(lines, 1) if ln]


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
    bits[:nbits] = g.adj[_strict_lower(n)]
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
    return Graph(n, np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8))


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
    # O_k: the (k-1)-subsets of a (2k-1)-set, in combinations order, adjacent
    # when disjoint.  A disjoint subset of S is its complement, k points, less
    # one point b, so S's k neighbours are listed directly: with the subsets
    # as bitmasks and index mapping a mask to its vertex, the rows whose
    # complement holds b are joined to index[comp ^ (1 << b)], one assignment
    # per point, O(n k) in all
    if k < 2:
        raise GraphError("odd: k must be >= 2")
    points = 2 * k - 1
    subsets = np.array(list(combinations(range(points), k - 1)), dtype=np.int64)
    masks = (np.int64(1) << subsets).sum(axis=1)
    n = len(masks)
    index = np.zeros(1 << points, dtype=np.int64)
    index[masks] = np.arange(n)
    comp = masks ^ ((1 << points) - 1)
    adj = np.zeros((n, n), dtype=np.uint8)
    for b in range(points):
        rows = np.flatnonzero(comp >> b & 1)
        adj[rows, index[comp[rows] ^ (1 << b)]] = 1
    return Graph(n, adj)


def _folded_cube(m):
    # hypercube of dimension m-1 plus the antipodal perfect matching: u is
    # joined to u with one of its m-1 bits flipped, and to u ^ (n-1)
    if m < 2:
        raise GraphError("folded_cube: m must be >= 2")
    n = 1 << (m - 1)
    u = np.arange(n)
    flips = np.array([1 << b for b in range(m - 1)] + [n - 1])
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[u[:, None], u[:, None] ^ flips] = 1
    return Graph(n, adj)


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
# products with the adjacency matrix

# a lone graph multiplies by A as neighbour sums (Product), in _expand,
# quick_reject, predistance.closed_walks and matrix_values, when it has more than
# NEIGHBOUR_SUM_FLOOR vertices and more than NEIGHBOUR_SUM_DENSITY per unit of
# its largest degree k: the sums cost about k n^2 plus a fixed cost per call,
# a dense product n^3.  Sums against dense products, one BLAS thread, 2-core
# Xeon VM: distance_data took 1.00 against 1.11 ms on C_61 and 3.7 against
# 11.2 ms on C_161; distance_data and matrix_values together 3.8 against
# 4.6 ms on the folded 9-cube (n/k = 28) and 9.8 against 37.7 ms on O_6
# (n/k = 77).  At n = 400 a uint8 sum beats the float32 product of the
# expansion at n/k = 10 (distance_data 5.8 against 10.2 ms), and a float64
# sum the product of matrix_values from n/k of about 17 (0.9 against 2.0 ms
# at n/k = 33, 1.6 against 2.7 ms at 25, 2.6 against 2.8 ms at 17, 3.1
# against 2.0 ms at 10, 15.5 against 1.9 ms at 2).  The floors were set when
# the sums were slower; they stay, since moving them moves which graphs of a
# corpus take the sums.  A met verify runs the expansion and the walk
# counts, whose sums are unsigned integers too: on O_6 a uint16 sum took
# 0.44 ms against 1.7 ms in float64
NEIGHBOUR_SUM_FLOOR = 128
NEIGHBOUR_SUM_DENSITY = 24

# bytes of the result summed at a time: a block and its gathered rows stay in
# a core's 2 MB L2 cache while the k gathers add into it.  A float64 A X at
# n = 1716 (O_7) took 221 ms as a dense product, 121 ms as k whole-matrix
# gathers, 40, 38, 39 and 51 ms in blocks of 8, 16, 32 and 64 rows.  Blocks
# of 2^14 to 2^22 bytes, uint8 and uint16 sums: fastest from 2^17 to 2^19 on
# O_6, O_7 and the folded 13-cube (O_7 uint8 4.6 ms at 2^14, 1.5 at 2^18,
# 3.2 at 2^22)
NEIGHBOUR_SUM_BLOCK = 1 << 18

# integers below 2^53 are exact in float64, those below 2^24 in float32
EXACT_FLOAT = 1 << 53


class Product:
    """Products A X with one graph's adjacency matrix A, each exact in its dtype.

    Built once per graph from its (n, n) uint8 adj, it holds the largest
    degree k and whether a product is k neighbour gathers (gathers: more
    than NEIGHBOUR_SUM_FLOOR vertices and more than NEIGHBOUR_SUM_DENSITY
    per unit of k) or one BLAS product.  Every operand and result has
    n + 1 rows, row n zero, as padded(dtype) holds A: table, (n, k), lists
    each vertex's neighbours in increasing order, a row shorter than k
    padded with n, and a gather at n reads that zero row.  A product
    whose entries are integers in [0, bound] is exact in exact(bound): on
    the gathers the smallest unsigned type that holds bound, on BLAS
    float32 below 2^24 and float64 below 2^53, and from 2^53 on Python
    integers, gathered on either path (the table is built on first use).
    """

    def __init__(self, adj):
        n = self.n = len(adj)
        self.adj = adj
        self.k = int(self.table.shape[1] if n > NEIGHBOUR_SUM_FLOOR else adj.sum(axis=1).max())
        self.gathers = n > NEIGHBOUR_SUM_FLOOR and n > NEIGHBOUR_SUM_DENSITY * self.k
        self._dense = adj  # A in the dtype of the last BLAS product, one copy at a time

    @functools.cached_property
    def table(self):
        n = self.n
        # one flat nonzero of the 0/1 bytes read as bool: no copy, and over
        # ten times faster than np.nonzero of int64
        rows, cols = np.divmod(np.flatnonzero(self.adj.view(bool)), n)
        deg = np.bincount(rows, minlength=n)
        table = np.full((n, deg.max()), n, dtype=np.intp)
        table[rows, np.arange(len(rows)) - np.repeat(np.cumsum(deg) - deg, deg)] = cols
        return table

    def padded(self, dtype):
        """A in dtype over the zero row n: a new (n + 1, n) array."""
        X = np.zeros((self.n + 1, self.n), dtype=dtype)
        X[:self.n] = self.adj
        return X

    def exact(self, bound):
        """The dtype in which a product whose entries are integers in [0, bound] is exact."""
        if bound >= EXACT_FLOAT:
            return np.dtype(object)
        if self.gathers:
            return np.min_scalar_type(bound)
        return np.dtype(np.float32 if bound < 1 << 24 else np.float64)

    def times(self, X, dtype, out=None):
        """A X in dtype, X of shape (n + 1, m) with row n zero; so is the result.

        X is left unchanged.  The result is written to out when it is given,
        an array of X's shape in dtype that is not X.  X with other than
        n + 1 rows raises ValueError: the gathers read row n as the zero row.
        """
        n = self.n
        if len(X) != n + 1:
            raise ValueError("a product with A takes n + 1 = %d rows, got %d" % (n + 1, len(X)))
        if out is None:
            out = np.empty(X.shape, dtype=dtype)
        out[n] = 0
        if self.gathers or dtype == object:
            neighbour_sum(self.table, X, out[:n])
        else:
            if self._dense.dtype != dtype:
                self._dense = self.adj.astype(dtype)
            np.matmul(self._dense, X[:n], out=out[:n])
        return out


def neighbour_sum(table, X, out):
    """Write into out the sums, row u, of the rows of X that row u of table lists.

    k gathers for a table of width k, summed a block of about
    NEIGHBOUR_SUM_BLOCK bytes of out at a time.  Each gather is
    take(mode="clip"), which numpy writes straight into its out, where the
    default mode="raise" first gathers into a buffer.  Clipping never moves
    an index: every entry of table lies in [0, n], n = len(table), and X
    has the n + 1 rows that Product.times checks for.  When X is in out's
    dtype, the first gather of a block is written into out itself, with no
    zero fill and one add fewer; a widening product (uint8 into uint16, as
    in closed_walks) sums from zero.  A table of width 0 sums to zero.
    """
    rows = max(1, NEIGHBOUR_SUM_BLOCK // out[0].nbytes)
    part = np.empty((min(rows, len(out)),) + X.shape[1:], dtype=X.dtype)
    direct = X.dtype == out.dtype and table.shape[1] > 0
    for lo in range(0, len(out), rows):
        block, sums = table[lo:lo + rows], out[lo:lo + rows]
        columns = iter(block.T)
        if direct:
            X.take(next(columns), axis=0, out=sums, mode="clip")
        else:
            sums[...] = 0
        for column in columns:
            sums += X.take(column, axis=0, out=part[:len(block)], mode="clip")


# ---------------------------------------------------------------------------
# distances and odd girth

class IntersectionCount(NamedTuple):
    """One intersection number's reduction over the pairs (u, v) at distance i.

    kind is "c", "a" or "b": the count is the number of neighbours of v at
    distance i - 1, i or i + 1 from u.  reference is the first pair at
    distance i in row-major order and expected its count; pair is the first
    pair in row-major order whose count differs, None if none does, and
    found that pair's count.  All are Python ints.
    """

    i: int
    kind: str
    reference: tuple
    expected: int
    pair: tuple = None
    found: int = None


@dataclass
class DistanceData:
    """What one all-sources expansion found about a graph's distances; no distance matrix.

    diameter is the last level the expansion reached and connected whether
    it reached every pair; the levels, the distance-i indicators A_i, are
    not kept (distance_levels yields them again).  odd_girth is the length
    of a shortest odd cycle, math.inf if there is none.
    intersection_counts are the IntersectionCount reductions the expansion
    made, in the order i = 0, 1, ..., and kinds c, a, b within a level (no
    c_0 and no b at the diameter, where b_D = 0 holds trivially), up to and
    including the first whose pair is not None: the definitional check of
    distance-regularity (verify.intersection_array) reads them, and no
    count matrix is kept.  product is the graph's Product, built once for
    the expansion and every product with A that follows it.
    """

    diameter: int
    connected: bool
    odd_girth: object
    intersection_counts: list
    product: Product


def _expand(product):
    """Level-synchronous BFS from every vertex of one graph, the graph's Product with A.

    Yields (frontier, sums, beyond, scratch) for levels k = 0, 1, ...:
    frontier = F_k, whose row u marks the vertices at distance k from u;
    sums = A F_k, whose entry (v, u) is the number of neighbours of v at
    distance k from u; beyond, the pairs at distance k or more, unreachable
    ones included; and scratch, a bool buffer the caller may write.  F_k is
    symmetric, so A F_k is the transpose of the level counts F_k A, and
    every reader of sums reads it in this orientation: the next level,
    F_{k+1} = (A F_k > 0) & (beyond minus F_k), is symmetric too.  The
    expansion ends after the last non-empty level, with beyond holding the
    pairs no level reached.

    Level 0 is the identity, so its sums are A itself, with no product.
    Each later level is one product.times of the rows of F_k, held as bytes
    over the zero row, whose entries count neighbours, at most the largest
    degree k, in the dtype exact for k.  Every level writes into a fixed set
    of (n + 1) x n buffers, two frontiers and two sums in turn, so a level's
    arrays stay valid until the level after next is yielded.  The bool
    buffers, and the sums when they are bytes, are one allocation.
    """
    n = product.n
    dtype = product.exact(product.k)
    byte_sums = dtype == np.uint8
    work = np.zeros((6 if byte_sums else 4, n + 1, n), dtype=bool)
    frontiers, beyond, scratch = work[:2], work[2, :n], work[3, :n]
    frontier = frontiers[0, :n]
    np.fill_diagonal(frontier, True)
    beyond[...] = True
    sums = product.adj
    # the sums of the odd and the even levels past 0
    spare = list(work[4:].view(np.uint8)) if byte_sums else [None, None]
    for k in count():
        yield frontier, sums[:n], beyond, scratch
        beyond ^= frontier  # F_k lies in beyond: the pairs farther than k are left
        nxt = frontiers[(k + 1) % 2]
        frontier = np.greater(sums[:n], 0, out=nxt[:n])
        frontier &= beyond
        if not frontier.any():
            return
        sums = spare[k % 2] = product.times(nxt.view(np.uint8), dtype, out=spare[k % 2])


def distance_levels(product):
    """Yield A_0, A_1, ..., A_D, the bool frontiers of a new expansion (_expand) by product.

    Each stays valid until the next but one is yielded.
    """
    for frontier, *_ in _expand(product):
        yield frontier


def _intersection_count(i, kind, frontier, sums, reference, scratch):
    """The IntersectionCount of kind at level i: frontier is F_i, sums A F_j of the level j kind reads.

    The count at (u, v) is entry (v, u) of sums, so the pairs whose count
    differs from the reference's are the transpose of the bool matrix
    F_i & (sums != expected), which F_i's symmetry lets be built in sums'
    own orientation, in scratch; its first pair in row-major order is its
    transpose's first in column-major order.
    """
    u, v = reference
    expected = sums[v, u]
    bad = np.not_equal(sums, expected, out=scratch)
    bad &= frontier
    if not bad.any():
        return IntersectionCount(i, kind, reference, int(expected))
    u = int(bad.any(axis=0).argmax())
    v = int(bad[:, u].argmax())
    return IntersectionCount(i, kind, reference, int(expected), (u, v), int(sums[v, u]))


def distance_data(g):
    """Diameter, connectivity, odd girth and intersection numbers from one expansion.

    All n sources expand together (_expand, with the graph's Product, kept
    in the result).  The diameter is the last level, and the graph is
    connected iff no pair lies beyond it; no distance matrix is written.

    An edge inside level k of some source (a neighbour of v at distance k
    from u, with v itself at distance k: a count of kind a that is not 0)
    closes an odd walk of length 2k+1, so it holds an odd cycle of at most
    that length; conversely a shortest odd cycle of length 2k+1 is
    isometric, so from any of its vertices the edge opposite lies inside
    level k.  The odd girth is therefore 2k+1 for the first such level, for
    disconnected graphs too.

    At level k the expansion holds F_{k-1}, F_k and the sums of both, so
    b_{k-1}, c_k and a_k are reduced there, in that order, which is the
    witness order, into the scratch buffer (_intersection_count).  The
    reductions stop at the first count that differs; a level's a_k, while
    it is reduced, also tells whether an edge lies inside the level.
    """
    n = g.n
    girth = math.inf
    counts = []
    product = Product(g.adj)
    previous = None  # the last level's frontier, sums and reference pair
    for k, (frontier, sums, beyond, scratch) in enumerate(_expand(product)):
        reference = divmod(int(frontier.argmax()), n)  # the first pair at distance k
        todo = [(k, "a", frontier, sums, reference)]
        if previous is not None:
            below, below_sums, below_reference = previous
            todo[:0] = [(k - 1, "b", below, sums, below_reference),
                        (k, "c", frontier, below_sums, reference)]
        inner = None  # whether an edge lies inside level k, read off a_k
        for level in todo:
            if counts and counts[-1].pair is not None:
                break
            counts.append(_intersection_count(*level, scratch))
            if level[1] == "a":
                inner = counts[-1].expected != 0 or counts[-1].pair is not None
        if girth == math.inf:
            if inner is None:
                inner = np.greater(sums, 0, out=scratch)
                inner &= frontier
                inner = bool(inner.any())
            if inner:
                girth = 2 * k + 1
        previous = frontier, sums, reference
    return DistanceData(
        diameter=k,
        connected=not beyond.any(),  # the pairs no level reached
        odd_girth=girth,
        intersection_counts=counts,
        product=product,
    )


def odd_girth(g):
    """Length of a shortest odd cycle; math.inf iff the graph is bipartite."""
    return distance_data(g).odd_girth


def quick_reject(g):
    """True only if g cannot meet the theorem's hypothesis, decided without distance_data.

    The hypothesis needs g connected with finite odd girth og >= 2d+1 >=
    2D+1, for d+1 distinct eigenvalues and diameter D <= d.  One BFS from
    vertex 0 goes a level at a time.  An edge inside level j closes an odd
    walk of length 2j+1 through vertex 0, so og <= 2j+1; if the BFS goes on
    to level j+1, then ecc(0) > j and og < 2 ecc(0)+1 <= 2D+1, and g is
    rejected at once.  A BFS that ends is rejected if it missed a vertex
    (disconnected) or, connected, had no edge inside any level (bipartite:
    og is infinite).  Otherwise a graph that is not complete, so D >= 2, is
    rejected if it has a triangle (og = 3 < 5): some entry of A A, a count
    of common neighbours, is non-zero on an edge.  A A is one Product.times
    in the dtype exact for the largest degree.  Every test is exact; False
    does not mean g meets the hypothesis.
    """
    A = g.adj.view(bool)  # 0/1 bytes: no copy
    frontier = np.zeros(g.n, dtype=bool)
    frontier[0] = True
    seen = frontier.copy()
    while True:
        rows = A[frontier]
        inner = rows[:, frontier].any()  # an edge inside this level
        frontier = rows.any(axis=0) & ~seen
        if not frontier.any():
            break
        if inner:
            return True
        seen |= frontier
    if not inner or not seen.all():
        return True
    if np.count_nonzero(A) == g.n * (g.n - 1):  # complete: its triangles leave D = 1
        return False
    product = Product(g.adj)
    common = product.times(product.padded(np.uint8), product.exact(product.k))  # (A A)_uv
    return bool(np.logical_and(common[:g.n], A).any())


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

    comp[u] is the component of vertex u and other[u] the vertices of that
    component coloured unlike u in a 2-colouring, as vertex bitmasks (uint8,
    one row per vertex; other means nothing where the graph is not
    bipartite).  pairs[S] is the edge bitmask of the pairs inside the vertex
    set S, for each of the 2^m sets: the edges a vertex joined to S closes
    into triangles.
    """

    comp: np.ndarray
    other: np.ndarray
    triangle_free: np.ndarray
    bipartite: np.ndarray
    low: np.ndarray
    pairs: np.ndarray


def _extensions(table, start, stop):
    """Join a new vertex j = len(table.comp) to the graphs of table: the masks [start, stop) on j + 1.

    Yields (lo, reach, other, triangle_free, bipartite) for each block of one
    neighbour set S of j, entry i of each array for mask lo + i, in
    ascending S.  reach is the component of j: bit j and the union of
    comp[u] over the vertices u of S, so a graph is connected iff reach
    holds all j + 1 vertices.  It is triangle-free iff it was before and no
    edge lies inside S, low & pairs[S] == 0.  It is bipartite iff it was
    before and S meets every component in one colour class: S misses other,
    the union of other[u] over u in S.  other with bit j is then the colour
    class of j, and reach ^ that the class of S; the caller must not write
    reach or other.

    The unions over S are those of the nearest block E held on a stack of
    nested sets, ORed with the rows of the vertices of S not in E.  The
    stack holds whole blocks above the empty set's constants, stride-0
    views; an ascending walk from 0 finds S's parent, S & (S - 1), on top,
    so each union takes one OR.  A range that starts past 0 builds its
    first block from the empty set.
    """
    j, size = len(table.comp), len(table.low)
    root = [np.broadcast_to(np.uint8(value), (size,)) for value in (1 << j, 0)]
    stack = [(0, *root)]  # (E, reach, other), each E a subset of the next
    for S in range(start // size, -(-stop // size)):
        base = S * size
        index = slice(max(start - base, 0), min(stop - base, size))
        while stack[-1][0] & ~S:
            stack.pop()
        E, reach, other = stack[-1]
        reach, other = reach[index], other[index]
        for u in range(j):
            if (S & ~E) >> u & 1:
                reach = reach | table.comp[u, index]
                other = other | table.other[u, index]
        if S != E and len(reach) == size:
            stack.append((S, reach, other))
        triangle_free = (table.low[index] & table.pairs[S]) == 0
        triangle_free &= table.triangle_free[index]
        bipartite = (other & S) == 0
        bipartite &= table.bipartite[index]
        yield base + index.start, reach, other, triangle_free, bipartite


@functools.lru_cache(maxsize=None)
def _table(m):
    """The read-only _Table of every graph on m <= 6 vertices, row L for mask L.

    A mask on m vertices is a graph on the first m - 1 (its low
    e = (m-1)(m-2)/2 bits) plus the neighbour set S of vertex m - 1 (its top
    m - 1 bits).  So the rows with one S are the block [S 2^e, (S+1) 2^e),
    the whole table of m - 1 vertices extended by S (_extensions), and each
    block is written in place into arrays of the final size.  On a bipartite
    row, j = m - 1 is coloured unlike side, the colour class of S, and a
    vertex joined to j unlike its own class, side or j's.  m = 0 is the one
    empty graph: connected to nothing, triangle-free and bipartite.
    """
    if m == 0:
        none = np.zeros((0, 1), dtype=np.uint8)
        table = _Table(none, none, np.ones(1, dtype=bool), np.ones(1, dtype=bool),
                       np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32))
    else:
        prev = _table(m - 1)
        j, size = m - 1, len(prev.low)
        comp = np.empty((m, size << j), dtype=np.uint8)
        other = np.empty_like(comp)
        triangle_free = np.empty(size << j, dtype=bool)
        bipartite = np.empty_like(triangle_free)
        for lo, reach, unlike, free, bip in _extensions(prev, 0, size << j):
            block = slice(lo, lo + size)
            triangle_free[block], bipartite[block] = free, bip
            rest = unlike | (1 << j)  # the colour class of j
            side = reach ^ rest  # the colour class of S
            comp[j, block], other[j, block] = reach, side
            for v in range(j):
                joined = (reach >> v) & 1 == 1
                comp[v, block] = np.where(joined, reach, prev.comp[v])
                colour = np.where((side >> v) & 1 == 1, rest, side)
                other[v, block] = np.where(joined, colour, prev.other[v])
        # the pair (u, j) is bit j(j-1)/2 + u, so S + 2^j adds S << j(j-1)/2
        inner = np.arange(1 << j, dtype=np.int32) << (j * (j - 1) // 2)
        pairs = np.concatenate([prev.pairs, prev.pairs | inner])
        table = _Table(comp, other, triangle_free, bipartite,
                       np.arange(size << j, dtype=np.int32), pairs)
    for array in table:
        array.setflags(write=False)
    return table


def mask_blocks(n, start, stop):
    """Yield (lo, connected, triangle_free, bipartite) for the masks [start, stop) on n vertices.

    1 <= n <= 7.  Entry i of each bool array is the property of mask lo + i.
    A block holds the masks with one neighbour set S of vertex n - 1, a slice
    of the table of n - 1 vertices extended by S (_extensions), so a block
    is 2^((n-1)(n-2)/2) masks, less where it meets start or stop.
    """
    if not 1 <= n <= 7:
        raise GraphError("mask tables support 1 <= n <= 7, got %d" % n)
    if not 0 <= start <= stop <= 1 << (n * (n - 1) // 2):
        raise GraphError("mask range [%d, %d) is outside [0, 2^%d) for n=%d"
                         % (start, stop, n * (n - 1) // 2, n))
    if start == stop:
        return
    full = (1 << n) - 1
    for lo, reach, _, triangle_free, bipartite in _extensions(_table(n - 1), start, stop):
        yield lo, reach == full, triangle_free, bipartite


@functools.lru_cache(maxsize=None)
def _pair_bits(n):
    """Read-only (n, n) index of each pair's bit in an edge bitmask, 63 on the diagonal."""
    lo, hi = np.sort(np.indices((n, n)), axis=0)
    bit = np.where(lo == hi, 63, hi * (hi - 1) // 2 + lo)
    bit.setflags(write=False)
    return bit


def adjacency_batch(n, masks):
    """(B, n, n) uint8 0/1 adjacency matrices of an int64 array of non-negative edge bitmasks.

    One gather: the masks' 64 bits are unpacked, least significant first, and
    entry (u, v), u < v, reads bit v(v-1)/2 + u, the index of the pair in
    edge_pairs(n) (n <= 11, so the pairs fit in 63 bits).  The diagonal reads
    bit 63, which is 0 in a non-negative mask.
    """
    raw = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    return bits[:, _pair_bits(n)]


def mask_graph6(n, mask):
    """graph6 line (bytes) of an edge bitmask on 1 <= n <= 62 vertices, read off its bits.

    graph6 numbers the pairs in the order of the mask's bits, so its body is
    the mask cut into groups of 6 bits from bit 0, each group reversed (the
    first pair is a byte's high bit) plus 63; bits past n(n-1)/2 are 0.
    Equal to encode_graph6(graph_from_mask(n, mask)), with no Graph built.
    """
    if not 1 <= n <= _G6_MAX_SHORT:
        raise GraphError("mask graph6 supports 1 <= n <= %d, got %d" % (_G6_MAX_SHORT, n))
    nbits = n * (n - 1) // 2
    if not 0 <= mask < 1 << nbits:
        raise _mask_range_error(n, mask)
    return bytes([63 + n] + [_G6_REVERSED[mask >> lo & 63] for lo in range(0, nbits, 6)])


@functools.lru_cache(maxsize=None)
def _orbit_table(n):
    """Read-only (n(n-1)/2, n!) int32 table: entry (b, p) is 1 << the bit pair b moves to under p.

    Column p is the p-th permutation of range(n) in lexicographic order,
    column 0 the identity; pair b = (u, v) of edge_pairs(n) moves to
    (p[u], p[v]), whose bit _pair_bits(n) holds.  n <= 8 has at most 28
    pairs, so int32 holds every mask.  Built one pair at a time: 423 KB at
    n = 7 and 4.5 MB at n = 8.
    """
    perms = np.fromiter(chain.from_iterable(permutations(range(n))),
                        dtype=np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    bits = _pair_bits(n).astype(np.int32)
    table = np.empty((n * (n - 1) // 2, len(perms)), dtype=np.int32)
    for b, (u, v) in enumerate(edge_pairs(n)):
        np.left_shift(1, bits[perms[:, u], perms[:, v]], out=table[b])
    table.setflags(write=False)
    return table


def _orbit(n, mask):
    """Sorted int32 masks of mask's orbit under S_n, 1 <= n <= 8, unchecked.

    The row of _orbit_table(n) of the lowest set bit, the rows of the others
    ORed in, one mask per permutation; sorted, then each mask that equals
    the one before it dropped (np.unique took six times as long at n = 7).
    """
    if not mask:
        return np.zeros(1, dtype=np.int32)
    table = _orbit_table(n)
    low = (mask & -mask).bit_length() - 1
    orbit = table[low].copy()
    for b in range(low + 1, mask.bit_length()):
        if mask >> b & 1:
            orbit |= table[b]
    orbit.sort()
    return orbit[np.concatenate(([True], orbit[1:] != orbit[:-1]))]


def mask_orbit(n, mask):
    """Sorted int64 array of the edge bitmasks of every relabeling of mask's graph, 1 <= n <= 8.

    The orbit of the mask under S_n acting on the vertices (_orbit), with
    n!/|Aut G| masks.
    """
    if not 1 <= n <= 8:
        raise GraphError("mask orbits support 1 <= n <= 8, got %d" % n)
    if not 0 <= mask < 1 << (n * (n - 1) // 2):
        raise _mask_range_error(n, mask)
    return _orbit(n, mask).astype(np.int64)


def enumerate_connected(n):
    """Yield every labeled connected simple graph on n vertices, 1 <= n <= 7.

    Labeled means isomorphic duplicates appear once per labeling, n!/|Aut G|
    times: the screen needs every labeling.  The scan does its isomorph
    rejection on the masks it expands and on its hits alone (mask_orbit).
    """
    if not 1 <= n <= 7:
        raise GraphError("enumeration supports 1 <= n <= 7, got %d" % n)
    for lo, connected, _, _ in mask_blocks(n, 0, 1 << (n * (n - 1) // 2)):
        for mask in lo + np.flatnonzero(connected):
            yield graph_from_mask(n, int(mask))

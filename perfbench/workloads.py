"""The three benchmark workloads: inputs made from a seed, one timed pass, known answers.

Every workload maps item keys to an expected verdict, where a verdict is the
intersection array ``(b, c)`` of a certified generalized odd graph, or
``None`` for a graph that does not meet the hypothesis.  A pass observes the
same mapping from the program's outputs; an item fails when the two differ.
The known answers come from construction and from this file's own numpy
checks, never from the program under test.
"""

import itertools

import numpy as np

# ---------------------------------------------------------------------------
# helpers independent of the program


def pair_bit(u, v):
    """Bit of edge {u, v} in an n-vertex edge mask (column-major upper triangle)."""
    u, v = min(u, v), max(u, v)
    return v * (v - 1) // 2 + u


def mask_of_edges(edges):
    mask = 0
    for u, v in edges:
        mask |= 1 << pair_bit(u, v)
    return mask


def adjacency_of_mask(n, mask):
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        for u in range(v):
            if (mask >> pair_bit(u, v)) & 1:
                adj[u, v] = adj[v, u] = 1
    return adj


def is_complete(adj):
    n = len(adj)
    return bool((adj + np.eye(n, dtype=np.int64) == 1).all())


def is_cycle(adj):
    """Connected and 2-regular, checked by reachability in (I + A)^n."""
    n = len(adj)
    if n < 3 or not (adj.sum(axis=1) == 2).all():
        return False
    reach = np.linalg.matrix_power(adj + np.eye(n, dtype=np.int64), n)
    return bool((reach > 0).all())


def triangle_count(adj):
    a = adj.astype(np.float64)
    return int(round(np.trace(a @ a @ a) / 6))


def cycle_array(k):
    """Intersection array of C_k for odd k: {2, 1, ..., 1; 1, ..., 1}."""
    d = (k - 1) // 2
    return ([2] + [1] * (d - 1), [1] * d)


def observed_verdict(report):
    """Verdict read off a TheoremReport: None if not met, else the array or 'alarm'."""
    if not report.hypothesis_met:
        return None
    c = report.conclusion
    if report.alarm or not c.distance_regular or not c.generalized_odd_graph:
        return "alarm"
    ia = c.intersection_array
    return (list(ia.b), list(ia.c))


def relabel(adj, rng):
    perm = rng.permutation(len(adj))
    return adj[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# sweep7: the exhaustive n <= 7 scan


class Sweep7:
    """scan_enumerated(7, jobs=1) over every mask; exhaustive, so the seed is unused."""

    name = "sweep7"
    N = 7
    MASKS = 2131019
    CONNECTED = 1893732
    HITS = 377

    def __init__(self, og, seed, outdir):
        self.og = og
        self.expected = None

    def generate(self):
        # K_3..K_7 plus every labeling of C_5 and C_7, by brute force over permutations
        expected = {}
        for n in range(3, self.N + 1):
            full = (1 << (n * (n - 1) // 2)) - 1
            expected[(n, full)] = ([n - 1], [1])
        for k in (5, 7):
            for perm in itertools.permutations(range(k)):
                mask = mask_of_edges((perm[i], perm[(i + 1) % k]) for i in range(k))
                expected[(k, mask)] = cycle_array(k)
        self.expected = expected

    def warmup(self):
        self.og.scan.scan_enumerated(5, jobs=1)

    def run_pass(self, clock, tracer=None):
        with clock:
            summary = self.og.scan.scan_enumerated(self.N, jobs=1)

        observed = {}
        for hit in summary.hits:
            verdict = observed_verdict(hit.report)
            adj = adjacency_of_mask(hit.n, hit.mask)
            if verdict not in (None, "alarm") and not (is_complete(adj) or is_cycle(adj)):
                verdict = "not K_n or C_n"
            observed[(hit.n, hit.mask)] = verdict
        totals = (summary.masks_total, summary.examined, summary.hypothesis_met,
                  summary.certified, summary.alarms)
        totals_ok = totals == (self.MASKS, self.CONNECTED, self.HITS, self.HITS, 0)
        return observed, totals_ok, {}


# ---------------------------------------------------------------------------
# verify_ladder: verify_theorem on four seeded relabelings


class VerifyLadder:
    """verify_theorem on Petersen, O_5, the folded 9-cube and O_6, each relabeled."""

    name = "verify_ladder"
    RUNGS = [
        ("petersen", "petersen", (), ([3, 2], [1, 1])),
        ("odd_5", "odd", (5,), ([5, 4, 4, 3], [1, 1, 2, 2])),
        ("folded_cube_9", "folded_cube", (9,), ([9, 8, 7, 6], [1, 2, 3, 4])),
        ("odd_6", "odd", (6,), ([6, 5, 5, 4, 4], [1, 1, 2, 2, 3])),
    ]

    def __init__(self, og, seed, outdir):
        self.og = og
        self.seed = seed
        self.graphs = None
        self.expected = None

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        self.graphs = []
        for key, family, params, _ in self.RUNGS:
            g = self.og.generate_family(family, params)
            self.graphs.append((key, self.og.Graph(g.n, relabel(g.adj, rng))))
        self.expected = {key: array for key, _, _, array in self.RUNGS}

    def warmup(self):
        self.og.verify_theorem(self.graphs[1][1])

    def run_pass(self, clock, tracer=None):
        observed = {}
        per_rung = {}
        for key, g in self.graphs:
            if tracer is not None:
                tracer.item = key
            before = clock.wall
            with clock:
                report = self.og.verify_theorem(g)
            per_rung[key] = clock.wall - before
            observed[key] = observed_verdict(report)
        if tracer is not None:
            tracer.item = None
        return observed, True, per_rung


# ---------------------------------------------------------------------------
# corpus_mixed: scan_corpus over a seeded graph6 file


class CorpusMixed:
    """scan_corpus on a seeded graph6 file whose every verdict is known by construction.

    The mix is fixed and only the labelings and random edges depend on the
    seed, so the cost of a pass barely moves between seeds: vertex counts are
    spread evenly over 20..120 and every random graph has 3n edges, plus at
    most 3 where a triangle is added to a sample that has none.
    """

    name = "corpus_mixed"
    FAMILY = [
        ("petersen", (), ([3, 2], [1, 1])),
        ("odd", (4,), ([4, 3, 3], [1, 1, 2])),
        ("odd", (5,), ([5, 4, 4, 3], [1, 1, 2, 2])),
        ("folded_cube", (5,), ([5, 4], [1, 2])),
        ("folded_cube", (7,), ([7, 6, 5], [1, 2, 3])),
        ("cycle", (9,), cycle_array(9)),
        ("cycle", (21,), cycle_array(21)),
        ("complete", (12,), ([11], [1])),
        ("prism", (), None),
    ]
    UNIONS = [("petersen", ()), ("folded_cube", (5,)), ("cycle", (21,))]
    BIPARTITE = 15
    TRIANGLE = 33
    N_MIN, N_MAX = 20, 120

    def __init__(self, og, seed, outdir):
        self.og = og
        self.seed = seed
        self.path = outdir / ("corpus-%d.g6" % seed)
        self.lines = None
        self.warmup_line = None
        self.expected = None

    def _sizes(self, count):
        return [self.N_MIN + (self.N_MAX - self.N_MIN) * i // (count - 1) for i in range(count)]

    def _random_graph(self, rng, n, bipartite):
        if bipartite:
            half = n // 2
            pairs = [(u, v) for u in range(half) for v in range(half, n)]
        else:
            pairs = [(u, v) for v in range(1, n) for u in range(v)]
        adj = np.zeros((n, n), dtype=np.int64)
        for idx in rng.choice(len(pairs), size=3 * n, replace=False):
            u, v = pairs[idx]
            adj[u, v] = adj[v, u] = 1
        if not bipartite and triangle_count(adj) == 0:
            u, v, w = rng.choice(n, size=3, replace=False)
            adj[u, v] = adj[v, u] = adj[u, w] = adj[w, u] = adj[v, w] = adj[w, v] = 1
        return relabel(adj, rng)

    def generate(self):
        og = self.og
        rng = np.random.default_rng([self.seed, 2])
        lines = []  # (adjacency, expected verdict)
        for family, params, array in self.FAMILY:
            lines.append((relabel(og.generate_family(family, params).adj, rng), array))
        for family, params in self.UNIONS:
            a = og.generate_family(family, params).adj
            z = np.zeros_like(a)
            lines.append((relabel(np.block([[a, z], [z, a]]), rng), None))
        for n in self._sizes(self.BIPARTITE):
            lines.append((self._random_graph(rng, n, True), None))
        for n in self._sizes(self.TRIANGLE):
            adj = self._random_graph(rng, n, False)
            if triangle_count(adj) == 0 or is_complete(adj):
                raise RuntimeError("corpus generator made a graph outside its class")
            lines.append((adj, None))
        order = rng.permutation(len(lines))

        text = []
        self.expected = {}
        for i, j in enumerate(order):
            adj, verdict = lines[j]
            text.append(og.encode_graph6(og.Graph(len(adj), adj)))
            self.expected[i] = verdict
        self.lines = [t.decode("ascii") for t in text]
        # the Petersen line: a warm-up whose cost does not depend on the seed
        self.warmup_line = self.lines[list(order).index(0)]
        self.path.write_bytes(b"\n".join(text) + b"\n")

    def warmup(self):
        self.og.verify_theorem(self.og.parse_graph6(self.warmup_line))

    def run_pass(self, clock, tracer=None):
        with clock:
            summary = self.og.scan.scan_corpus(str(self.path), jobs=1)

        by_text = {}
        for hit in summary.hits:
            by_text.setdefault(hit.graph6, []).append(observed_verdict(hit.report))
        observed = {}
        for i, line in enumerate(self.lines):
            found = by_text.get(line)
            observed[i] = found.pop() if found else None
        totals_ok = (summary.examined == len(self.lines) and summary.parse_failures == 0
                     and not any(by_text.values()))
        return observed, totals_ok, {}


WORKLOADS = {w.name: w for w in (Sweep7, VerifyLadder, CorpusMixed)}

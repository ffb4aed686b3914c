"""Shared fixtures: the family suite and frozen oracle data.

The frozen spectra and intersection arrays below are standard facts about
these families (circulant eigenvalues for cycles, binomial eigenvalue
multiplicities for the folded cubes, the alternating k - i eigenvalues for
the odd graphs); the tests treat them as independent oracles for the
numerical pipeline.
"""

import math

import numpy as np
import pytest

import oddgirth as og
from oddgirth.graphs import MASK_BATCH, edge_pairs, mask_connected

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
    for lo in range(start, stop, MASK_BATCH):
        masks = np.arange(lo, min(lo + MASK_BATCH, stop), dtype=np.int64)
        deg = np.stack([np.bitwise_count(masks & star) for star in stars], axis=1)
        regular = masks[(deg == deg[:, :1]).all(axis=1)]
        out.extend(int(m) for m in regular[mask_connected(n, regular)])
    return out


@pytest.fixture(scope="session")
def mask_oracle():
    """For n <= 6, lists indexed by mask of what one Graph per mask reports.

    Keys: connected, diameter and odd_girth from distance_data, and
    triangle_free from trace(A^3), which is six times the triangle count.
    """
    oracle = {}
    for n in range(1, 7):
        rows = []
        for mask in range(1 << (n * (n - 1) // 2)):
            g = og.graph_from_mask(n, mask)
            dd = og.distance_data(g)
            free = bool(np.trace(g.adj @ g.adj @ g.adj) == 0)
            rows.append((dd.connected, dd.diameter, dd.odd_girth, free))
        keys = ("connected", "diameter", "odd_girth", "triangle_free")
        oracle[n] = dict(zip(keys, map(list, zip(*rows))))
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

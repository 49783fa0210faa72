"""Shared builders for the test suite.

The fixtures directory holds the golden JSON documents; the helpers here
build small graphs programmatically and generate seeded random instances
for the property batteries.  Every test runs under TIME_LIMIT, so a
fault that loops fails its test and the suite goes on.
"""
import itertools
import json
import pathlib
import random
import signal
from fractions import Fraction

import pytest

from gensplines import build_graph, integers, integers_mod, poly_rational
from gensplines.rings import Ideal

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# seconds a test may run, far above the slowest test (about 4 s): a fault
# that makes a loop run without end fails its test instead of hanging the suite
TIME_LIMIT = 20


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeoutError in a test that runs past TIME_LIMIT, where the
    platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        raise TimeoutError(f"test ran past its {TIME_LIMIT} s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def P(*coeffs):
    """Rational polynomial from ascending integer/fraction coefficients."""
    return poly_rational().element(list(coeffs))


def coefficients(x):
    """A Q[x] element's coefficients in ascending degree, as Fractions
    built from its payload's ratios()."""
    return tuple(Fraction(n, d) for n, d in x.payload.ratios())


def make_graph(ring, vertices, edges):
    """edges: list of (u, v, generator-or-list-of-generators)."""
    labeled = []
    for u, v, gens in edges:
        if not isinstance(gens, (list, tuple)):
            gens = [gens]
        labeled.append((u, v, Ideal([ring.element(g) for g in gens])))
    return build_graph(ring, vertices, labeled)


def triangle_z():
    """C3 over Z with edge ideals <2>, <3>, <5>."""
    Z = integers()
    return make_graph(Z, ["v1", "v2", "v3"],
                      [("v1", "v2", 2), ("v2", "v3", 3), ("v1", "v3", 5)])


def path_z(labels):
    Z = integers()
    n = len(labels) + 1
    verts = [f"v{i + 1}" for i in range(n)]
    return make_graph(Z, verts,
                      [(verts[i], verts[i + 1], labels[i]) for i in range(n - 1)])


def near_subgraphs(host):
    """Three graphs with every vertex and edge of a Z or Z/m host that are
    not subgraphs of it: the first edge's generator raised by one, every
    generator read over another ring (Z/5 for Z, Z otherwise), and a
    foreign vertex joined to the first vertex."""
    first = host.edges[0]
    edges = [(u, v, host.labels[u, v].canonical.payload) for u, v in host.edges]
    other = integers_mod(5) if host.ring.kind == "integers" else integers()
    return [
        make_graph(host.ring, host.vertices,
                   [(u, v, g + ((u, v) == first)) for u, v, g in edges]),
        make_graph(other, host.vertices, edges),
        make_graph(host.ring, host.vertices + ("zz",),
                   edges + [(host.vertices[0], "zz", 1)]),
    ]


@pytest.fixture
def k4_graph():
    from gensplines.serialize import graph_from_json
    return graph_from_json(load_fixture("k4.json"))


@pytest.fixture
def k4_spline(k4_graph):
    from gensplines.serialize import spline_from_json
    return spline_from_json(k4_graph, load_fixture("k4-spline.json"))


@pytest.fixture
def k4_path_tuple(k4_graph):
    from gensplines.serialize import spline_from_json
    return spline_from_json(k4_graph, load_fixture("k4-path-tuple.json"))


@pytest.fixture
def k4_cycle_tuple(k4_graph):
    from gensplines.serialize import spline_from_json
    return spline_from_json(k4_graph, load_fixture("k4-cycle-tuple.json"))


# -- seeded random instance generators --

def random_generator_element(ring, rng, nonzero=False):
    """A random ideal generator (degree <= 4 for polynomials)."""
    if ring.kind == "integers-mod":
        lo = 1 if nonzero else 0
        return ring.element(rng.randrange(lo, ring.modulus))
    if ring.kind == "integers":
        x = rng.randint(1 if nonzero else 0, 9)
        return ring.element(x)
    degree = rng.randint(0, 4)
    coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]
    if not nonzero and rng.random() < 0.1:
        return ring.zero
    return ring.element(coeffs)


def random_connected_graph(ring, rng, n_max=5, e_max=8, nonzero=False):
    n = rng.randint(2, n_max)
    verts = [f"v{i + 1}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    extras = list(itertools.combinations(range(n), 2))
    rng.shuffle(extras)
    for pair in extras:
        if len(edges) >= min(e_max, n * (n - 1) // 2):
            break
        edges.add(pair)
    labeled = [(verts[i], verts[j],
                Ideal([random_generator_element(ring, rng, nonzero=nonzero)]))
               for i, j in sorted(edges)]
    return build_graph(ring, verts, labeled)


def random_tree(ring, rng, n_max=7, nonzero=False):
    n = rng.randint(2, n_max)
    verts = [f"v{i + 1}" for i in range(n)]
    labeled = []
    for i in range(1, n):
        j = rng.randrange(i)
        g = random_generator_element(ring, rng, nonzero=nonzero)
        labeled.append((verts[j], verts[i], Ideal([g])))
    return build_graph(ring, verts, labeled)


def random_path(ring, rng, n_max=6, nonzero=False):
    n = rng.randint(2, n_max)
    verts = [f"v{i + 1}" for i in range(n)]
    labeled = [(verts[i], verts[i + 1],
                Ideal([random_generator_element(ring, rng, nonzero=nonzero)]))
               for i in range(n - 1)]
    return build_graph(ring, verts, labeled)


def random_cycle(ring, rng, n_max=6, nonzero=True):
    n = rng.randint(3, n_max)
    verts = [f"v{i + 1}" for i in range(n)]
    labeled = [(verts[i], verts[(i + 1) % n],
                Ideal([random_generator_element(ring, rng, nonzero=nonzero)]))
               for i in range(n)]
    return build_graph(ring, verts, labeled)


def seeded(seed):
    return random.Random(seed)

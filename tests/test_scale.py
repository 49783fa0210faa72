"""Growth gates: how an operation's time grows with its input.

Each gate times an operation at n and 4n on seeded sparse graphs in one
process, interleaved, best of K, and asserts that the ratio stays under
4 ** (e + SLACK), e the operation's exponent in the size of its input.
A ratio within one process cancels most of the host's drift, where an
absolute time limit does not.
"""
import json
import random
from time import perf_counter

from gensplines import analysis, integers, poly_rational, serialize, verify
from gensplines.construct import flow_up_family, tree_generating_family, tree_membership
from gensplines.gkm import build_gkm_matrix, syzygy_check
from gensplines.graphs import spanning_tree
from gensplines.splines import Spline, decompose_at_vertex

from conftest import make_graph

SLACK = 0.5
K = 9


def sparse_z_graph(n, seed, chords=None):
    """n vertices: a random tree plus chords (n/4 by default), labels
    from {2, 3, 4, 6, 9, 12}."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < n - 1 + (n // 4 if chords is None else chords):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return make_graph(integers(), [f"v{i}" for i in range(n)],
                      [(f"v{i}", f"v{j}", rng.choice([2, 3, 4, 6, 9, 12]))
                       for i, j in sorted(pairs)])


def lcm_spline(graph, rng):
    """A spline on a sparse_z_graph: 36, the labels' lcm, times random ints."""
    return Spline(graph, {v: graph.ring.element(36 * rng.randint(-10 ** 6, 10 ** 6))
                          for v in graph.vertices})


def growth(runs):
    """Best-of-K times of each run, taken in turn; the last over the first."""
    best = [float("inf")] * len(runs)
    for _ in range(K):
        for i, run in enumerate(runs):
            start = perf_counter()
            run()
            best[i] = min(best[i], perf_counter() - start)
    return best[-1] / best[0]


def test_a_sampled_draw_is_linear():
    """A draw is a subtree sum over the flow-up factors: n products and
    n - 1 sums (e = 1).  The trees and factors are taken at the first
    draw, outside the timing."""
    draws = [analysis._random_members(sparse_z_graph(n, n), random.Random(n))
             for n in (100, 400)]
    for d in draws:
        next(d)
    assert growth([d.__next__ for d in draws]) < 4 ** (1 + SLACK)


def test_a_sampled_certificate_grows_with_its_cover():
    """One sample on the spanning-tree cover, prebuilt: the cover check
    reads its E - n + 2 trees of n - 1 edges each, O((E - n) * n)
    entries (e = 2), and the one draw is verified on G alone, in linear
    time.  A draw verified on every tree would cost O((E - n) * n) per
    tree."""
    runs = []
    for n in (100, 400):
        graph = sparse_z_graph(n, n)
        cover = analysis.spanning_tree_cover(graph)
        runs.append(lambda graph=graph, cover=cover:
                    analysis.check_union_decomposition(graph, cover, samples=1))
    assert growth(runs) < 4 ** (2 + SLACK)


def test_verify_is_linear():
    """One divisibility test per edge on payloads, and a violated edge's
    difference wrapped once (e = 1).  A random tuple violates most
    edges, so the wrapping is timed too."""
    runs = []
    for n in (100, 400):
        graph, rng = sparse_z_graph(n, n), random.Random(n)
        p = Spline(graph, {v: graph.ring.element(rng.randint(-10 ** 6, 10 ** 6))
                           for v in graph.vertices})
        assert not verify(graph, p).ok
        runs.append(lambda graph=graph, p=p: verify(graph, p))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_gkm_matrix_and_syzygy_check_are_linear():
    """The matrix holds one row per edge, and the check fixes p along the
    tree's parents, then tests each chord row once (e = 1).  The last
    column is a spline's, so every chord row holds and is tested."""
    runs = []
    for n in (100, 400):
        graph = sparse_z_graph(n, n)
        p, tree = lcm_spline(graph, random.Random(n)), spanning_tree(graph)
        q = {(u, v): p[u] - p[v] for u, v in graph.edges}
        assert syzygy_check(graph, tree, q)
        runs.append(lambda graph=graph, tree=tree, q=q:
                    (build_gkm_matrix(graph), syzygy_check(graph, tree, q)))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_decompose_at_vertex_is_linear():
    """verify, then one subtraction per vertex (e = 1)."""
    runs = []
    for n in (100, 400):
        graph = sparse_z_graph(n, n)
        p = lcm_spline(graph, random.Random(n))
        runs.append(lambda graph=graph, p=p: decompose_at_vertex(graph, p, "v0"))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_tree_membership_is_linear_in_the_exponent():
    """On the path a-b-c labeled x and x^e, with values (0, 0, 1), the
    levels divide x^e by x, x^2, x^4, ... and then by the same powers
    from the largest down: O(log e) divisions of O(e) each (e = 1 in the
    exponent).  One division per factor of x made it quadratic."""
    QX = poly_rational()
    runs = []
    for e in (1000, 4000):
        graph = make_graph(QX, ["a", "b", "c"], [("a", "b", [[0, 1]]),
                                                 ("b", "c", [[0] * e + [1]])])
        p = Spline(graph, {"a": QX.zero, "b": QX.zero, "c": QX.one})
        assert tree_membership(graph, p).failures == (("a", "c"), ("b", "c"))
        runs.append(lambda graph=graph, p=p: tree_membership(graph, p))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_tree_membership_on_random_tuples_is_linear():
    """A random Z tuple on a path labeled from {2, 3, 4, 6, 9, 12}: one
    divisibility test per edge, then one union-find per base element and
    level (e = 1).  On a path each level's components are runs of edges
    of geometric length, so the failing pairs, which are output, are
    linear in n too; on a random tree a giant component makes them
    superlinear."""
    runs = []
    for n in (100, 400):
        rng = random.Random(n)
        verts = [f"v{i}" for i in range(n)]
        graph = make_graph(integers(), verts, [(verts[i - 1], verts[i],
                                                rng.choice([2, 3, 4, 6, 9, 12]))
                                               for i in range(1, n)])
        p = Spline(graph, {v: graph.ring.element(rng.randint(-10 ** 6, 10 ** 6))
                           for v in verts})
        assert tree_membership(graph, p).failures
        runs.append(lambda graph=graph, p=p: tree_membership(graph, p))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_a_serialize_round_trip_is_linear():
    """A graph and a spline to JSON text and back: one conversion per
    vertex and edge each way, and the edges sorted once (e = 1)."""
    def round_trip(graph, p):
        text = json.dumps({"graph": serialize.graph_to_json(graph),
                           "spline": serialize.spline_to_json(p)})
        doc = json.loads(text)
        back = serialize.graph_from_json(doc["graph"])
        return serialize.spline_from_json(back, doc["spline"])

    runs = []
    for n in (100, 400):
        graph = sparse_z_graph(n, n)
        p = lcm_spline(graph, random.Random(n))
        assert round_trip(graph, p).as_tuple() == p.as_tuple()
        runs.append(lambda graph=graph, p=p: round_trip(graph, p))
    assert growth(runs) < 4 ** (1 + SLACK)


def test_tree_generating_family_grows_with_its_output():
    """n members of n values each, every value one of the member's
    factor and zero, shared (e = 2 in n, against n^2 output entries)."""
    trees = [sparse_z_graph(n, n, chords=0) for n in (100, 400)]
    assert all(tree.is_tree for tree in trees)
    assert growth([lambda tree=tree: tree_generating_family(tree) for tree in trees]) \
        < 4 ** (2 + SLACK)


def test_flow_up_family_grows_with_its_output():
    """n members of n values each, the n factors each a product of up to
    E = 5n/4 labels: an output of about n^2 + n * E entries and label
    factors (e = 2 in n).  One pairwise product of the labels, then one
    division and one wrapped factor per member, on payloads."""
    graphs = [sparse_z_graph(n, n) for n in (100, 400)]
    assert growth([lambda graph=graph: flow_up_family(graph) for graph in graphs]) \
        < 4 ** (2 + SLACK)

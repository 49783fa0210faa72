"""Enumeration oracles and the decomposition certifiers."""
import math
import random
import time
import warnings
from itertools import product

import pytest

from gensplines import (
    analysis,
    build_graph,
    graphs,
    integers,
    integers_mod,
    poly_rational,
    serialize,
    spanning_tree,
    verify,
)
from gensplines.analysis import (
    BudgetExceededError,
    DecompositionReport,
    check_cycle_decomposition,
    check_decompositions,
    check_triangular_family,
    check_union_decomposition,
    count_direct_sum,
    cycle_cover,
    enumerate_splines,
    matrix_solution_set,
    random_member,
    reduced_solution_set,
    spanning_tree_cover,
)
from gensplines.construct import GeneratingFamily, flow_up_family, trivial_spline
from gensplines.gkm import (
    ReducedSystem,
    SystemRow,
    build_gkm_matrix,
    path_reduced_form,
    reduce_via_tree,
)
from gensplines.graphs import (
    GraphError,
    _bfs,
    fundamental_cycles,
    induced_subgraph,
    path_edges,
    restrict,
    spanning_subgraph,
)
from gensplines.rings import UnsupportedRingError
from gensplines.splines import Spline, VerificationReport

from conftest import (
    make_graph,
    near_subgraphs,
    random_connected_graph,
    seeded,
    triangle_z,
)

Z = integers()


def triangle_mod(m, labels=(1, 1, 1)):
    R = integers_mod(m)
    a, b, c = labels
    return make_graph(R, ["v1", "v2", "v3"],
                      [("v1", "v2", a), ("v2", "v3", b), ("v1", "v3", c)])


class TestEnumerate:
    def test_unit_labels_give_all_tuples(self):
        g = triangle_mod(2)
        out = enumerate_splines(g)
        assert len(out) == 8
        assert out.members[0] == (0, 0, 0)
        assert out.members == tuple(sorted(out.members))

    def test_triangle_mod4_label2(self):
        g = triangle_mod(4, (2, 2, 2))
        out = enumerate_splines(g)
        # v1 free, v2 and v3 congruent to it mod 2
        assert len(out) == 16
        assert all((a - b) % 2 == 0 and (b - c) % 2 == 0
                   for a, b, c in out.members)

    def test_zero_label_forces_equality(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [("a", "b", 0)])
        assert enumerate_splines(g).members == ((0, 0), (1, 1))

    def test_hub_declared_last_is_searched_from_the_hub(self):
        # a leaf, then the hub it shares a form with, then the leaves, each
        # closing its edge at once; in declaration order the hub would be
        # the last of 19 slots, so no edge closed before it
        R = integers_mod(2)
        leaves = [f"l{i}" for i in range(18)]
        edges = [("hub", leaf, 0) for leaf in leaves]
        start = time.perf_counter()
        last = enumerate_splines(make_graph(R, leaves + ["hub"], edges)).members
        elapsed = time.perf_counter() - start
        first = enumerate_splines(make_graph(R, ["hub"] + leaves, edges)).members
        assert elapsed < 1.0
        assert last == tuple(sorted(t[1:] + t[:1] for t in first))
        assert last == ((0,) * 19, (1,) * 19)

    def test_members_verify(self):
        g = triangle_mod(6, (2, 3, 0))
        out = enumerate_splines(g)
        for p in out.as_splines():
            assert verify(g, p).ok

    def test_budget(self):
        g = triangle_mod(5)
        with pytest.raises(BudgetExceededError):
            enumerate_splines(g, budget=100)

    def test_needs_finite_ring(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        with pytest.raises(UnsupportedRingError):
            enumerate_splines(g)

    @pytest.mark.parametrize("ring", [Z, poly_rational()])
    def test_every_oracle_refuses_an_infinite_ring_alike(self, ring):
        g = make_graph(ring, ["a", "b"], [("a", "b", 2)])
        matrix = build_gkm_matrix(g)
        system = reduce_via_tree(matrix, spanning_tree(g))
        for oracle in (lambda: enumerate_splines(g),
                       lambda: count_direct_sum(g, "a"),
                       lambda: matrix_solution_set(matrix),
                       lambda: reduced_solution_set(system)):
            with pytest.raises(UnsupportedRingError,
                               match=r"^exhaustive enumeration needs a finite ring \(Z/m\)$"):
                oracle()


class TestUnionDecomposition:
    def test_edge_by_edge_exhaustive(self):
        g = triangle_mod(6, (2, 3, 4))
        parts = [spanning_subgraph(g, [e]) for e in g.edges]
        report = check_union_decomposition(g, parts, claim="edge-by-edge")
        assert report.verdict and report.mode == "exhaustive"
        assert report.claim == "edge-by-edge"

    def test_cover_validation(self):
        g = triangle_mod(4)
        parts = [spanning_subgraph(g, [g.edges[0]])]
        with pytest.raises(GraphError, match="do not cover"):
            check_union_decomposition(g, parts)

    def test_sampled_mode_over_integers(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        parts = [spanning_subgraph(g, [e]) for e in g.edges]
        report = check_union_decomposition(g, parts, seed=7, samples=5)
        assert report.verdict and report.mode == "sampled" and report.seed == 7


class TestSpanningTreeCover:
    def test_triangle_cover(self):
        g = triangle_mod(6, (2, 3, 4))
        trees = spanning_tree_cover(g)
        assert len(trees) == 2  # BFS tree plus one chord swap
        union = set()
        for t in trees:
            assert len(t.edges) == len(g.vertices) - 1
            assert t.is_connected
            union.update(t.edges)
        assert union == set(g.edges)
        report = check_union_decomposition(g, trees, claim="spanning-trees")
        assert report.verdict

    def test_cycle_decomposition(self):
        g = triangle_mod(6, (2, 3, 4))
        report = check_cycle_decomposition(g, spanning_tree(g))
        assert report.verdict and report.claim == "tree-plus-cycles"


class TestTriangularFamily:
    def test_flow_up_is_triangular(self):
        # needs an integral domain: over Z/6 the product 2*3*4 collapses
        g = triangle_mod(5, (2, 3, 4))
        assert check_triangular_family(flow_up_family(g))
        h = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        assert check_triangular_family(flow_up_family(h))

    def test_broken_diagonal_detected(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        zero = trivial_spline(g, Z.element(0))
        fam = GeneratingFamily(g, (zero, trivial_spline(g, Z.element(1))),
                               ("a", "b"), (Z.element(0), Z.element(1)))
        assert not check_triangular_family(fam)

    def test_entry_below_the_diagonal_detected(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        one = trivial_spline(g, Z.element(1))
        fam = GeneratingFamily(g, (one, one), ("a", "b"), (Z.element(1), Z.element(1)))
        assert not check_triangular_family(fam)

    def test_size_mismatch_detected(self):
        g = make_graph(Z, ["a", "b"], [("a", "b", 2)])
        fam = GeneratingFamily(g, (trivial_spline(g, Z.element(1)),),
                               ("a", "b"), (Z.element(1),))
        assert not check_triangular_family(fam)


class TestDirectSumCount:
    def test_triangle_mod4(self):
        g = triangle_mod(4, (2, 2, 2))
        assert count_direct_sum(g, "v1") == (16, 4)

    def test_zero_edge_mod2(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [("a", "b", 0)])
        assert count_direct_sum(g, "a") == (2, 1)

    def test_requires_connected(self):
        R = integers_mod(2)
        g = make_graph(R, ["a", "b"], [])
        with pytest.raises(GraphError):
            count_direct_sum(g, "a")
        with pytest.raises(GraphError):
            count_direct_sum(triangle_mod(2), "zz")


class TestSolutionSets:
    def test_matrix_matches_enumeration(self):
        g = triangle_mod(6, (2, 3, 4))
        base = set(enumerate_splines(g).members)
        assert matrix_solution_set(build_gkm_matrix(g)) == base

    def test_orientation_invariance(self):
        g = triangle_mod(6, (2, 3, 4))
        base = matrix_solution_set(build_gkm_matrix(g))
        flipped = build_gkm_matrix(
            g, orientation={("v1", "v2"): ("v2", "v1"),
                            ("v1", "v3"): ("v3", "v1")})
        assert matrix_solution_set(flipped) == base

    def test_reduced_system_preserves_solutions(self):
        g = triangle_mod(6, (2, 3, 4))
        base = set(enumerate_splines(g).members)
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        assert reduced_solution_set(system) == base


def product_splines(graph):
    """Every x in (Z/m)^n with x_u - x_v in the ideal of each edge uv, by
    itertools.product and Ideal.contains: an oracle that shares no code
    with the search in analysis."""
    ring, m = graph.ring, graph.ring.modulus
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(index[u], index[v],
              {r for r in range(m) if graph.labels[(u, v)].contains(ring.element(r))})
             for u, v in graph.edges]
    return {x for x in product(range(m), repeat=len(index))
            if all((x[i] - x[j]) % m in ok for i, j, ok in edges)}


def seeded_zm_graph(seed):
    """A connected graph over Z/m, 2 <= m <= 12, with m^n <= 4096.  Seed
    "hub-last-star" gives a Z/4 star whose hub is declared last, so no
    edge form closes before the last slot."""
    rng = seeded(seed)
    if seed == "hub-last-star":
        return rng, make_graph(integers_mod(4), ["a", "b", "c", "d", "hub"],
                               [(v, "hub", k) for k, v in enumerate("abcd")])
    m = rng.randint(2, 12)
    n_max = max(2, int(math.log(4096, m)))
    return rng, random_connected_graph(integers_mod(m), rng, n_max=n_max, e_max=6)


def seeded_zm_path(seed):
    """A path over Z/m whose vertices are declared in a shuffled order."""
    rng = seeded(seed)
    m = rng.randint(2, 12)
    n = rng.randint(2, max(2, int(math.log(4096, m))))
    order = [f"v{i}" for i in range(n)]
    declared = order[:]
    rng.shuffle(declared)
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(order, order[1:])]
    return make_graph(integers_mod(m), declared,
                      [(a, b, rng.randrange(m)) for a, b in edges])


def flipped_matrix(graph, rng):
    return build_gkm_matrix(graph, orientation={
        (u, v): (v, u) for u, v in graph.edges if rng.random() < 0.5})


class TestIndependentOracle:
    @pytest.mark.parametrize("seed", [*range(40), "hub-last-star"])
    def test_connected_graphs(self, seed):
        rng, g = seeded_zm_graph(seed)
        expected = product_splines(g)
        found = enumerate_splines(g).members
        assert found == tuple(sorted(expected))
        matrix = flipped_matrix(g, rng)
        assert matrix_solution_set(matrix) == expected
        tree = spanning_tree(g, rng.choice(g.vertices))
        assert reduced_solution_set(reduce_via_tree(matrix, tree)) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_paths(self, seed):
        g = seeded_zm_path(seed)
        expected = product_splines(g)
        assert set(enumerate_splines(g).members) == expected
        matrix = flipped_matrix(g, seeded(seed))
        assert matrix_solution_set(matrix) == expected
        assert reduced_solution_set(path_reduced_form(matrix)) == expected
        tree = spanning_tree(g, g.vertices[-1])
        assert reduced_solution_set(reduce_via_tree(matrix, tree)) == expected

    def test_path_form_keeps_only_splines(self):
        R = integers_mod(6)
        g = make_graph(R, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        found = reduced_solution_set(path_reduced_form(build_gkm_matrix(g)))
        assert (0, 3, 0) not in found
        assert found == product_splines(g) == set(enumerate_splines(g).members)

    def test_edgeless_graph_gives_every_tuple(self):
        g = make_graph(integers_mod(3), ["a", "b"], [])
        assert enumerate_splines(g).members == tuple(product(range(3), repeat=2))
        report = check_union_decomposition(g, [])
        assert report.verdict and report.mode == "exhaustive"


def residue_forms(rng, m, n):
    """Up to n + 2 random (form, d) conditions over n slots, each of 1 to
    4 terms as reduced_solution_set makes them.  A coefficient may be 0 or
    a multiple of d, d is any divisor of m (1 and m included), and now and
    then a condition is repeated."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    forms = []
    for _ in range(rng.randint(0, n + 2)):
        if forms and rng.random() < 0.2:
            forms.append(rng.choice(forms))
            continue
        d = rng.choice(divisors)
        slots = rng.sample(range(n), rng.randint(1, min(4, n)))
        forms.append(({k: rng.choice([0, d * rng.randint(-2, 2), rng.randint(-2 * m, 2 * m)])
                       for k in slots}, d))
    return forms


def product_search(m, n, forms):
    """What _residue_search promises, by itertools.product: the tuples
    whose every form is divisible by its d, in lexicographic order."""
    return [x for x in product(range(m), repeat=n)
            if all(sum(c * x[k] for k, c in form.items()) % d == 0 for form, d in forms)]


def residue_search(m, n, forms):
    g = make_graph(integers_mod(m), [f"v{i}" for i in range(n)], [])
    return analysis._residue_search(g, forms)


class TestResidueSearch:
    """The search's list, order included, against the product filter."""

    @pytest.mark.parametrize("seed", range(80))
    def test_seeded_forms(self, seed):
        rng = seeded(seed)
        m = rng.randint(2, 12)
        n = rng.randint(1, max(n for n in range(1, 13) if m ** n <= 4096))
        forms = residue_forms(rng, m, n)
        assert residue_search(m, n, forms) == product_search(m, n, forms)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_chains_off_declaration_order(self, seed):
        """Two-term forms along a shuffled chain of the slots mostly take
        the search off declaration order, so its tuples are sorted back."""
        rng = seeded(seed)
        m = rng.randint(2, 6)
        n = max(n for n in range(1, 13) if m ** n <= 4096)
        chain = rng.sample(range(n), n)
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        forms = []
        for a, b in zip(chain, chain[1:]):
            d = rng.choice(divisors)
            forms.append(({a: rng.randrange(1, d), b: rng.randrange(1, d) - d}, d))
        forms += residue_forms(rng, m, n)
        assert residue_search(m, n, forms) == product_search(m, n, forms)

    @pytest.mark.parametrize("m, n, forms", [
        (3, 3, []),  # every tuple
        (4, 4, [({0: 1, 3: -1}, 2), ({3: 1, 1: 3}, 4)]),  # slots 0, 3, 1, 2
        (6, 4, [({2: 1, 3: 5}, 3), ({3: 2, 0: 1}, 6), ({1: 4, 2: 3, 0: 6}, 6)]),  # 0, 3, 2, 1
        # d = 1 and multiples of d drop two forms; slots 0, 1, 3, 2
        (5, 4, [({1: 1, 0: 0}, 1), ({0: 5, 2: 10}, 5), ({3: 1, 1: 4}, 5)]),
        (6, 3, [({0: 2, 2: 4}, 6)] * 3 + [({1: 3}, 2), ({1: 9, 0: 3}, 6)]),  # repeated
        (12, 3, [({0: 1, 2: -1}, 12), ({2: 6}, 12), ({1: 4, 0: 8}, 12)]),  # d = m
        (8, 2, [({0: 1, 1: 1}, 2), ({0: 1, 1: 1}, 8), ({0: 9, 1: 9}, 8)]),  # same terms, two d
        # one-term checks, coefficients not +-1, d a proper divisor of m
        (12, 3, [({0: 4, 1: 3}, 6), ({1: 2, 2: 6}, 4)]),
        (10, 3, [({0: 2, 1: 3}, 5), ({1: 4, 2: 2}, 5)]),
        # slot 2 closes two one-term checks, one reading slot 0, one slot 1
        (6, 3, [({0: 1, 1: -1}, 2), ({0: 2, 2: 3}, 6), ({1: 5, 2: 2}, 3)]),
        (12, 3, [({0: 1, 1: 1}, 3), ({0: 3, 2: 2}, 4), ({1: 4, 2: 9}, 6)]),
        # slot 3 closes a one-term check on slot 2 and a check on slots 0 and 1
        (12, 4, [({0: 5, 1: 2}, 12), ({1: 3, 2: 1}, 4), ({2: 2, 3: 9}, 12),
                 ({0: 1, 1: 2, 3: 3}, 6)]),
        (6, 4, [({0: 1, 1: 1}, 2), ({1: 1, 2: 2}, 3), ({2: 4, 3: 3}, 6),
                ({0: 2, 1: 1, 3: 5}, 6)]),
    ])
    def test_chosen_forms(self, m, n, forms):
        assert residue_search(m, n, forms) == product_search(m, n, forms)


def recorded_searches(monkeypatch):
    """Wrap analysis._residue_search; the list it returns fills with each
    search's result as a set, in call order."""
    found = []
    search = analysis._residue_search

    def recording(graph, forms):
        result = search(graph, forms)
        found.append(set(result))
        return result

    monkeypatch.setattr(analysis, "_residue_search", recording)
    return found


def folded_intersection(graph, subgraphs):
    """The intersection the way the certifier once built it: one full
    enumeration per aligned subgraph, folded with &."""
    inter = set(product(range(graph.ring.modulus), repeat=len(graph.vertices)))
    for sub in subgraphs:
        inter &= set(enumerate_splines(spanning_subgraph(graph, sub.edges)).members)
    return inter


def tree_plus_cycles(graph, tree):
    return [spanning_subgraph(graph, tree.tree_edges)] + [
        spanning_subgraph(graph, path_edges(graph, cycle.vertex_sequence))
        for cycle in fundamental_cycles(graph, tree)]


def scrambled_cover(graph, rng):
    """A cover whose subgraphs overlap, repeat one another and include an
    edgeless one, each declaring the vertices in a shuffled order and its
    edges with reversed endpoints."""
    groups = [[] for _ in range(rng.randint(1, 3))]
    for e in graph.edges:
        for group in rng.sample(groups, rng.randint(1, len(groups))):
            group.append(e)
    cover = []
    for edges in groups + [groups[0], []]:
        vertices = list(graph.vertices)
        rng.shuffle(vertices)
        cover.append(build_graph(graph.ring, vertices,
                                 [(v, u, graph.labels[u, v]) for u, v in edges]))
    return cover


class TestOneSearchPerCertificate:
    def test_two_searches_however_many_subgraphs(self, monkeypatch):
        g = triangle_mod(6, (2, 3, 4))
        per_edge = [spanning_subgraph(g, [e]) for e in g.edges]
        found = recorded_searches(monkeypatch)
        for subgraphs in (per_edge, per_edge * 4, spanning_tree_cover(g)):
            found.clear()
            assert check_union_decomposition(g, subgraphs).verdict
            assert len(found) == 2
        found.clear()
        assert check_cycle_decomposition(g, spanning_tree(g)).verdict
        assert len(found) == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_intersection_matches_the_fold(self, seed, monkeypatch):
        rng, g = seeded_zm_graph(seed)
        tree = spanning_tree(g, rng.choice(g.vertices))
        covers = [[spanning_subgraph(g, [e]) for e in g.edges],
                  spanning_tree_cover(g), scrambled_cover(g, rng),
                  tree_plus_cycles(g, tree)]
        found = recorded_searches(monkeypatch)
        for subgraphs in covers:
            found.clear()
            if subgraphs is covers[-1]:
                report = check_cycle_decomposition(g, tree)
            else:
                report = check_union_decomposition(g, subgraphs)
            whole, inter = found
            assert report.verdict and report.counterexample is None
            assert inter == whole == folded_intersection(g, subgraphs)

    def test_a_faulty_search_gives_the_least_difference(self, monkeypatch):
        g = triangle_mod(4, (2, 2, 2))
        search = analysis._residue_search
        calls = []

        def dropping(graph, forms):
            result = search(graph, forms)
            calls.append(forms)
            return result if len(calls) == 1 else result[:3] + result[5:]

        monkeypatch.setattr(analysis, "_residue_search", dropping)
        parts = [spanning_subgraph(g, [e]) for e in g.edges]
        report = check_union_decomposition(g, parts)
        assert not report.verdict and report.mode == "exhaustive"
        assert report.counterexample == search(g, calls[0])[3]

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_refused(self, samples):
        for g in (triangle_mod(6, (2, 3, 4)),
                  make_graph(Z, ["a", "b", "c"],
                             [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])):
            parts = [spanning_subgraph(g, [e]) for e in g.edges]
            with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
                check_union_decomposition(g, parts, samples=samples)
            with pytest.raises(ValueError, match="samples must be at least 1"):
                check_cycle_decomposition(g, spanning_tree(g), samples=samples)


FAULTS = ("drop", "add", "replace", "append", "empty")


def planted(found, fault, m, n, rng):
    """found, a search's sorted list of distinct tuples, with one fault
    that keeps it sorted and distinct: entries dropped, tuples added or
    replaced at random places, one tuple past the end, or nothing found.
    (m,) * n, which no search finds, stands in when every tuple is found."""
    present = set(found)
    absent = [t for t in product(range(m), repeat=n) if t not in present] or [(m,) * n]
    if fault == "empty":
        return []
    if fault == "append":
        return found + [rng.choice([t for t in absent if t > found[-1]] or [(m,) * n])]
    out = list(found)
    if fault in ("drop", "replace"):
        for i in sorted(rng.sample(range(len(out)), rng.randint(1, min(3, len(out)))),
                        reverse=True):
            del out[i]
    if fault in ("add", "replace"):
        out += rng.sample(absent, rng.randint(1, min(3, len(absent))))
    return sorted(out)


class TestLeastDifference:
    """A faulty search in either of a certificate's two searches: the
    merge of the two lists names the least tuple of their symmetric
    difference, recomputed here from sets."""

    @pytest.mark.parametrize("seed", [*range(4), "hub-last-star"])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_seeded_faults(self, fault, which, seed, monkeypatch):
        rng, g = seeded_zm_graph(seed)
        search, found = analysis._residue_search, []

        def faulty(graph, forms):
            result = search(graph, forms)
            if len(found) == which:
                result = planted(result, fault, graph.ring.modulus, len(graph.vertices), rng)
            found.append(result)
            return result

        monkeypatch.setattr(analysis, "_residue_search", faulty)
        certify = rng.choice([
            lambda: check_union_decomposition(g, [spanning_subgraph(g, [e]) for e in g.edges]),
            lambda: check_union_decomposition(g, spanning_tree_cover(g)),
            lambda: check_union_decomposition(g, scrambled_cover(g, rng)),
            lambda: check_cycle_decomposition(g, spanning_tree(g, rng.choice(g.vertices))),
        ])
        report = certify()
        whole, inter = found
        assert set(whole) != set(inter)
        assert not report.verdict and report.mode == "exhaustive"
        assert report.counterexample == min(set(whole) ^ set(inter))


def redeclared(graph, rng):
    """graph with its vertices and its edges declared in shuffled orders,
    each edge named from a random end."""
    vertices = list(graph.vertices)
    rng.shuffle(vertices)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
    rng.shuffle(edges)
    return build_graph(graph.ring, vertices, [(u, v, graph.label(u, v)) for u, v in edges])


def in_order_of(graph, other, tuples):
    """other's residue tuples as a set, each rewritten in graph's vertex order."""
    at = [other.index(v) for v in graph.vertices]
    return {tuple(x[i] for i in at) for x in tuples}


class TestRedeclaredGraphs:
    """The searches read sparse, de-duplicated conditions; no answer may
    depend on the declaration orders, on a matrix's orientation or on
    repeats in a cover."""

    @pytest.mark.parametrize("seed", [*range(30), "hub-last-star"])
    def test_same_answers(self, seed):
        rng, g = seeded_zm_graph(seed)
        h = redeclared(g, rng)
        splines = set(enumerate_splines(g).members)
        assert in_order_of(g, h, enumerate_splines(h).members) == splines
        v = rng.choice(g.vertices)
        assert count_direct_sum(h, v) == count_direct_sum(g, v)
        for graph in (g, h):
            matrix = flipped_matrix(graph, rng)
            tree = spanning_tree(graph, rng.choice(graph.vertices))
            assert in_order_of(g, graph, matrix_solution_set(matrix)) == splines
            system = reduce_via_tree(matrix, tree)
            assert in_order_of(g, graph, reduced_solution_set(system)) == splines
            twice = scrambled_cover(graph, rng)
            covers = [[spanning_subgraph(graph, [e]) for e in graph.edges],
                      spanning_tree_cover(graph), twice + twice]
            reports = [check_union_decomposition(graph, cover) for cover in covers]
            reports.append(check_cycle_decomposition(graph, tree))
            assert [(r.verdict, r.counterexample) for r in reports] == [(True, None)] * 4


HOSTS = {"exhaustive": lambda: triangle_mod(6, (2, 3, 4)), "sampled": triangle_z}


class TestOneSubgraphRelation:
    @pytest.mark.parametrize("bad", range(3))
    @pytest.mark.parametrize("mode", HOSTS)
    def test_union_refuses_a_non_subgraph(self, mode, bad):
        g = HOSTS[mode]()
        sub = near_subgraphs(g)[bad]
        per_edge = [spanning_subgraph(g, [e]) for e in g.edges]
        for cover in ([sub], per_edge + [sub]):
            with pytest.raises(GraphError, match="^not a subgraph of the host$"):
                check_union_decomposition(g, cover, samples=2)

    @pytest.mark.parametrize("bad, message", [
        (0, "not a subgraph of the host"),
        (1, "not a subgraph of the host"),
        (2, "tree does not span the graph")])
    @pytest.mark.parametrize("mode", HOSTS)
    def test_cycle_decomposition_refuses_a_tree_of_a_non_subgraph(self, mode, bad, message):
        g = HOSTS[mode]()
        tree = spanning_tree(near_subgraphs(g)[bad])
        assert g.edges[0] in tree.tree_edges  # T holds the relabelled first edge
        with pytest.raises(GraphError, match=f"^{message}$"):
            check_cycle_decomposition(g, tree, samples=2)

    @pytest.mark.parametrize("mode", HOSTS)
    def test_cycle_decomposition_takes_a_tree_of_the_host_in_another_order(self, mode):
        g = HOSTS[mode]()
        h = build_graph(g.ring, g.vertices[::-1],
                        [(u, v, g.labels[u, v]) for u, v in g.edges])
        report = check_cycle_decomposition(g, spanning_tree(h), samples=2)
        assert report.verdict and report.counterexample is None

    def test_a_subgraph_that_drops_a_vertex_is_refused(self):
        g = triangle_mod(6, (2, 3, 4))
        parts = [spanning_subgraph(g, g.edges), restrict(g, ["v1", "v2"], [g.edges[0]])]
        with pytest.raises(GraphError, match="must keep every vertex"):
            check_union_decomposition(g, parts)

    def test_builds_no_subgraph(self, monkeypatch):
        covers = [(g, [spanning_subgraph(g, [e]) for e in g.edges])
                  for g in (host() for host in HOSTS.values())]
        built = []
        build = analysis.spanning_subgraph

        def counting(graph, edges):
            built.append(edges)
            return build(graph, edges)

        monkeypatch.setattr(analysis, "spanning_subgraph", counting)
        for g, parts in covers:
            assert check_union_decomposition(g, parts, samples=2).verdict
        assert built == []

    @pytest.mark.parametrize("seed", range(10))
    def test_scrambled_sampled_covers_certify(self, seed):
        rng = seeded(seed)
        g = random_connected_graph(Z, rng, nonzero=True)
        report = check_union_decomposition(g, scrambled_cover(g, rng), seed=seed, samples=3)
        assert report.verdict and report.mode == "sampled"
        assert report.counterexample is None

    def test_a_sampled_counterexample_lives_on_the_host(self, monkeypatch):
        g = triangle_z()
        cover = scrambled_cover(g, seeded(2))
        assert any(sub.vertices != g.vertices for sub in cover)
        check = analysis.verify

        def failing_on_the_host(graph, p):
            return VerificationReport(False, ()) if graph is g else check(graph, p)

        monkeypatch.setattr(analysis, "verify", failing_on_the_host)
        report = check_union_decomposition(g, cover, samples=2)
        assert not report.verdict and report.mode == "sampled"
        assert report.counterexample.graph is g


def replace_row(rows, edge, coeffs=None, rhs=None):
    """rows with edge's row rebuilt on the coeffs or rhs given."""
    return tuple(SystemRow(edge, row.coeffs if coeffs is None else coeffs,
                           row.rhs if rhs is None else rhs) if row.edge == edge else row
                 for row in rows)


def with_rows(system, tree_rows=None, cycle_rows=None):
    """system rebuilt on the tree_rows or cycle_rows given."""
    return ReducedSystem(system.graph, system.tree_rows if tree_rows is None else tree_rows,
                         system.cycle_rows if cycle_rows is None else cycle_rows,
                         system.transform_log)


class TestCorruptedSystems:
    """Z/5 triangle: BFS from v1 makes v2-v3 the chord.  The unit labels
    leave only the label-0 edges binding."""

    def test_cycle_row_sign_flip(self):
        g = triangle_mod(5, (1, 0, 1))  # v1-v2, v2-v3 (chord), v1-v3
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        (row,) = system.cycle_rows
        rhs = tuple((-sign, e) if e == ("v1", "v2") else (sign, e) for sign, e in row.rhs)
        corrupted = with_rows(
            system, cycle_rows=replace_row(system.cycle_rows, row.edge, rhs=rhs))
        assert reduced_solution_set(system) == product_splines(g)
        assert reduced_solution_set(corrupted) != product_splines(g)

    def test_tree_row_coefficient_doubled(self):
        g = triangle_mod(5, (0, 1, 1))
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        (row,) = [r for r in system.tree_rows if r.edge == ("v1", "v2")]
        coeffs = {k: 2 * c if c == 1 else c for k, c in row.coeffs.items()}
        corrupted = with_rows(
            system, tree_rows=replace_row(system.tree_rows, row.edge, coeffs=coeffs))
        assert reduced_solution_set(system) == product_splines(g)
        assert reduced_solution_set(corrupted) != product_splines(g)

    def test_rows_that_cannot_be_solved(self):
        g = triangle_mod(5, (0, 1, 1))
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        row = system.tree_rows[0]
        doubled = replace_row(system.tree_rows, row.edge, rhs=((2, row.edge),))
        with pytest.raises(ValueError, match="sign"):
            reduced_solution_set(with_rows(system, tree_rows=doubled))
        chord = system.cycle_rows[0].edge
        looped = replace_row(system.tree_rows, row.edge, rhs=((1, row.edge), (1, chord)))
        with pytest.raises(ValueError, match="exactly one row"):
            reduced_solution_set(with_rows(system, tree_rows=looped))
        twice = system.tree_rows + (SystemRow(row.edge, {0: 1, 2: -1}, row.rhs),)
        with pytest.raises(ValueError, match="exactly one row"):
            reduced_solution_set(with_rows(system, tree_rows=twice))


class TestLongPath:
    def test_path_form_longer_than_the_recursion_limit(self):
        R = integers_mod(2)
        names = [f"v{i}" for i in range(1100)]
        g = make_graph(R, names, [(u, v, 0) for u, v in zip(names, names[1:])])
        system = path_reduced_form(build_gkm_matrix(g))
        assert reduced_solution_set(system, budget=10**400) == {(0,) * 1100, (1,) * 1100}


class TestRandomMember:
    def test_members_verify(self):
        rng = seeded(11)
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)])
        for _ in range(10):
            p = random_member(g, rng)
            assert verify(g, p).ok
        # over Z/m the random coefficients are residues
        h = make_graph(integers_mod(6), ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        for _ in range(10):
            assert verify(h, random_member(h, rng)).ok


class TestSampledFamilies:
    def test_one_flow_up_build_per_graph_component(self, k4_graph, monkeypatch):
        built = []
        factors = analysis._flow_up_factors

        def counting(graph, edges, depth, parent):
            built.append(tuple(depth))
            return factors(graph, edges, depth, parent)

        monkeypatch.setattr(analysis, "_flow_up_factors", counting)
        per_edge = [spanning_subgraph(k4_graph, [e]) for e in k4_graph.edges]
        for subgraphs in (per_edge, spanning_tree_cover(k4_graph)):
            built.clear()
            report = check_union_decomposition(k4_graph, subgraphs, seed=3, samples=20)
            assert report.verdict
            pairs = len(k4_graph.components()) + sum(
                len(sub.components()) for sub in subgraphs)
            assert len(built) <= pairs


def dense_draws(graph, rng):
    """The draws as a dense combination: per component, flow_up_family
    of the induced subgraph, one random coefficient per member, and
    every member's value at every vertex multiplied and summed."""
    ring = graph.ring
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        families = [(comp, flow_up_family(induced_subgraph(graph, comp)))
                    for comp in graph.components()]
    while True:
        values = {}
        for comp, family in families:
            acc = {v: ring.zero for v in comp}
            for member in family.members:
                c = analysis._random_element(ring, rng)
                for v in comp:
                    acc[v] = acc[v] + c * member[v]
            values.update(acc)
        yield Spline(graph, values)


def sampled_graph(seed):
    """A seeded graph over Z (zero labels often), Z/m or Q[x], with 1 to 12
    vertices, often disconnected, declared in a shuffled order with edges
    named from a random end."""
    rng = seeded(seed)
    ring = [Z, integers_mod(rng.choice([2, 4, 6, 9, 12, 30])), poly_rational()][seed % 3]
    n = rng.randint(1, 12)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs[:rng.randint(0, min(len(pairs), 2 * n))]:
        if ring.kind == "integers-mod":
            g = rng.randrange(ring.modulus)
        elif ring.kind == "integers":
            g = rng.choice([0, 0, 1, 2, 3, 4, 6, 9, 12, -5])
        else:
            g = [0] if rng.random() < 0.15 else [rng.randint(-3, 3), rng.randint(1, 3)]
        edges.append((u, v, g) if rng.random() < 0.5 else (v, u, g))
    return make_graph(ring, rng.sample(names, n), edges)


class TestSampledDraws:
    """_random_members against the dense combination of flow-up members:
    the same values from the same rng calls."""

    @pytest.mark.parametrize("seed", range(90))
    def test_same_draws_as_the_dense_combination(self, seed):
        graph = sampled_graph(seed)
        draws = analysis._random_members(graph, seeded(seed))
        reference = dense_draws(graph, seeded(seed))
        for _ in range(3):
            p, q = next(draws), next(reference)
            assert serialize.spline_to_json(p) == serialize.spline_to_json(q)
            assert verify(graph, p).ok

    def test_the_battery_covers_its_kinds(self):
        graphs = [sampled_graph(seed) for seed in range(90)]
        kinds = {g.ring.kind for g in graphs}
        assert kinds == {"integers", "integers-mod", "poly-rational"}
        assert sum(not g.is_connected for g in graphs) >= 20
        assert sum(any(g.labels[e].is_zero for e in g.edges) for g in graphs) >= 20
        assert sum(list(g.vertices) != sorted(g.vertices) for g in graphs) >= 60

    def test_pinned_draw_over_polynomials(self, k4_graph):
        """The first draw of random.Random(4) on k4, as recorded before
        draws were taken as subtree sums."""
        drawn = serialize.spline_to_json(random_member(k4_graph, seeded(4)))
        assert drawn == {"values": {
            "v1": ["-2", "-6", "-4", "-8", "-7", "-9", "-13", "-12", "-15", "-12", "-13",
                   "-14", "-11", "-7", "-10", "-5", "-6", "-5", "0", "-1", "1", "-1"],
            "v2": ["2", "0", "2", "2", "2", "4", "4", "4", "4", "6", "4", "6", "4", "4",
                   "4", "4", "2", "2", "2", "0", "2"],
            "v3": ["0", "-2", "-2", "-2", "-4", "-4", "-4", "-6", "-6", "-4", "-6", "-6",
                   "-4", "-4", "-4", "-2", "-2", "-2"],
            "v4": ["-3", "-3", "-3", "-6", "-3", "-6", "-9", "-6", "-9", "-9", "-6", "-9",
                   "-6", "-3", "-6", "-3", "-3", "-3"]}}

    @pytest.mark.parametrize("graph, seed, expected", [
        (make_graph(Z, ["a", "b", "c", "d"],
                    [("a", "b", 0), ("b", "c", 6), ("b", "d", 4), ("c", "d", 9)]),
         7, [{"a": "-342", "b": "-342", "c": "36", "d": "270"},
             {"a": "-972", "b": "-972", "c": "108", "d": "-216"}]),
        (make_graph(integers_mod(12), ["p", "q", "r", "s", "t"],
                    [("q", "s", 4), ("s", "p", 6), ("r", "t", 3)]),
         5, [{"p": "3", "q": "11", "r": "2", "s": "3", "t": "11"},
             {"p": "0", "q": "8", "r": "7", "s": "0", "t": "7"}]),
    ], ids=["z-zero-label", "z12-disconnected"])
    def test_pinned_draws(self, graph, seed, expected):
        rng = seeded(seed)
        drawn = [serialize.spline_to_json(random_member(graph, rng))["values"]
                 for _ in expected]
        assert drawn == expected

    def test_one_walk_per_component(self, monkeypatch):
        # a sampled certificate draws on the host alone and walks each of
        # its components once: the walk that finds a component also gives
        # its BFS tree
        graph = make_graph(Z, ["a", "b", "c", "d", "e", "f"],
                           [("a", "b", 2), ("b", "c", 6), ("a", "c", 4), ("d", "e", 3)])
        subgraphs = [spanning_subgraph(graph, [e]) for e in graph.edges]
        expected = len(graph.components())
        walks = []
        for module in (analysis, graphs):
            monkeypatch.setattr(module, "_bfs", lambda *args: walks.append(args) or _bfs(*args))
        assert check_union_decomposition(graph, subgraphs, samples=3).verdict
        assert len(walks) == expected == 3

    @pytest.mark.filterwarnings("error")
    def test_a_zero_label_draws_without_warning(self):
        graph = make_graph(Z, ["a", "b", "c"], [("a", "b", 0), ("b", "c", 6), ("a", "c", 4)])
        for subgraphs in ([spanning_subgraph(graph, [e]) for e in graph.edges],
                          spanning_tree_cover(graph)):
            assert check_union_decomposition(graph, subgraphs, samples=5).verdict


def reference_sampled_report(graph, subgraphs, *, claim, seed, samples):
    """A sampled certificate that also draws on the parts: samples draws
    of G and then of each part, all from one random.Random(seed), each
    verified on every part, and on G when it lies in every R_{G_i}."""
    subgraphs = list(subgraphs)
    edge_sets = tuple(tuple(sub.edges) for sub in subgraphs)
    rng = random.Random(seed)
    # a draw of G must lie in every R_{G_i}; a draw of a G_i that lies
    # in every R_{G_i} must lie in R_G, and only then is it verified on G
    for i, source in enumerate([graph, *subgraphs]):
        members = analysis._random_members(source, rng)
        for _ in range(samples):
            p = Spline(graph, next(members).values)
            inside = all(analysis.verify(sub, p).ok for sub in subgraphs)
            if inside != (i == 0 or (inside and analysis.verify(graph, p).ok)):
                return DecompositionReport(claim, edge_sets, False,
                                           counterexample=p,
                                           mode="sampled", seed=seed)
    return DecompositionReport(claim, edge_sets, True, mode="sampled", seed=seed)


def report_fields(report):
    bad = report.counterexample
    return (report.claim, report.subgraphs, report.verdict, report.mode, report.seed,
            serialize.spline_to_json(bad) if isinstance(bad, Spline) else bad)


def sampled_reports(graph, seed, samples):
    """(library report, reference report) for each cover that selfcheck
    certifies: edge by edge, and on a connected graph with edges the
    spanning-tree cover and a tree plus its fundamental cycles."""
    options = {"seed": seed, "samples": samples}
    per_edge = [spanning_subgraph(graph, [e]) for e in graph.edges]
    yield (check_union_decomposition(graph, per_edge, claim="edge-by-edge", **options),
           reference_sampled_report(graph, per_edge, claim="edge-by-edge", **options))
    if graph.is_connected and graph.edges:
        trees = spanning_tree_cover(graph)
        yield (check_union_decomposition(graph, trees, claim="spanning-trees", **options),
               reference_sampled_report(graph, trees, claim="spanning-trees", **options))
        tree = spanning_tree(graph)
        yield (check_cycle_decomposition(graph, tree, **options),
               reference_sampled_report(graph, tree_plus_cycles(graph, tree),
                                        claim="tree-plus-cycles", **options))


def refusing_odd_graphs(graph, p):
    """verify with a planted fault: on a graph with edges and an odd
    number of vertices, a spline nonzero at the first declared vertex is
    refused.  An edgeless graph's cover has no parts, and the reference
    verifies nothing on it, so the fault needs an edge to test."""
    report = verify(graph, p)
    if graph.edges and len(graph.vertices) % 2 and not p[graph.vertices[0]].is_zero:
        return VerificationReport(False, report.violations)
    return report


class TestSampledReference:
    """Draws taken and verified on G alone give the reports of the loop
    that also drew on every part and verified each draw on every part:
    the parts carry G's labels and cover its edges, so a draw verifies on
    every part exactly when it verifies on G."""

    @pytest.mark.parametrize("fault", [None, refusing_odd_graphs], ids=["verify", "planted"])
    def test_same_reports_as_the_reference(self, fault, monkeypatch):
        if fault:
            monkeypatch.setattr(analysis, "verify", fault)
        verdicts = []
        for seed in range(240):
            graph = sampled_graph(seed)
            if graph.ring.kind == "integers-mod":
                continue
            for ours, reference in sampled_reports(graph, seed, 1 + seed % 4):
                assert report_fields(ours) == report_fields(reference)
                verdicts.append(ours.verdict)
        false = verdicts.count(False)
        assert len(verdicts) > 300 and (false > 40 if fault else false == 0)


def selfcheck_covers(graph):
    """The covers that cli.cmd_selfcheck certifies, by claim."""
    covers = {"edge-by-edge": [spanning_subgraph(graph, [e]) for e in graph.edges]}
    if graph.is_connected and graph.edges:
        covers["spanning-trees"] = spanning_tree_cover(graph)
        covers["tree-plus-cycles"] = cycle_cover(graph, spanning_tree(graph))
    return covers


def dropping_the_zero_of_g(graph, forms, search=analysis._residue_search):
    """_residue_search with a planted fault keyed on its input: a search
    over G's own conditions, in edge order, loses its least tuple, the
    zero spline."""
    found = search(graph, forms)
    terms = build_gkm_matrix(graph).terms_by_edge()
    own = [(terms[e], graph.labels[e].divisor) for e in graph.edges]
    return found[1:] if list(forms) == own else found


def certificate_graphs():
    """Seeded graphs over Z/m, Z and Q[x], each with a seed of its own."""
    yield from ((seed, seeded_zm_graph(seed)[1]) for seed in range(30))
    for seed in range(30, 150):
        graph = sampled_graph(seed)
        if graph.ring.kind != "integers-mod":
            yield seed, graph


class TestOneCertificatePerGraph:
    """check_decompositions takes G's side once for every claim and gives
    the reports of one check_union_decomposition per claim.  Under the
    planted faults some are false: a draw that verify refuses refutes
    every claim, and over Z/m a claim is refuted, at the zero tuple, just
    when its cover's conditions are not G's own in edge order, so the
    cover's own search was compared."""

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "planted"])
    def test_same_reports_as_one_call_per_claim(self, planted, monkeypatch):
        if planted:
            monkeypatch.setattr(analysis, "verify", refusing_odd_graphs)
            monkeypatch.setattr(analysis, "_residue_search", dropping_the_zero_of_g)
        false = dict.fromkeys(["integers-mod", "integers", "poly-rational"], 0)
        for seed, graph in certificate_graphs():
            covers = selfcheck_covers(graph)
            options = {"seed": seed, "samples": 1 + seed % 4}
            reports = check_decompositions(graph, covers, **options)
            assert [report_fields(r) for r in reports] == [
                report_fields(check_union_decomposition(graph, parts, claim=claim, **options))
                for claim, parts in covers.items()]
            for report, parts in zip(reports, covers.values()):
                false[graph.ring.kind] += not report.verdict
                if graph.ring.kind == "integers-mod":
                    keys = [graph.edge_key(u, v) for sub in parts for u, v in sub.edges]
                    assert report.verdict == (not planted or keys == list(graph.edges))
                    zero = (0,) * len(graph.vertices)
                    assert report.counterexample == (None if report.verdict else zero)
        if planted:
            assert min(false.values()) > 10
        else:
            assert false == dict.fromkeys(false, 0)

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "planted"])
    def test_the_cycle_certificate_is_the_union_over_its_cover(self, planted, monkeypatch):
        if planted:
            monkeypatch.setattr(analysis, "verify", refusing_odd_graphs)
            monkeypatch.setattr(analysis, "_residue_search", dropping_the_zero_of_g)
        for seed, graph in certificate_graphs():
            if not (graph.is_connected and graph.edges):
                continue
            tree = spanning_tree(graph, seeded(seed).choice(graph.vertices))
            options = {"seed": seed, "samples": 1 + seed % 4}
            assert report_fields(check_cycle_decomposition(graph, tree, **options)) == (
                report_fields(check_union_decomposition(
                    graph, cycle_cover(graph, tree), claim="tree-plus-cycles", **options)))

"""Constructive families: cycles, paths, trees, extension by zero, and
flow-up splines."""
import itertools
import math
import random
import time
import tracemalloc
import warnings

import pytest

from gensplines import construct, graphs, integers, integers_mod, poly_rational, verify
from gensplines.analysis import enumerate_splines, random_member
from gensplines.construct import (
    cycle_generating_family,
    cycle_spline,
    excluded_edges,
    extend_by_zero,
    extend_by_zero_with_factor,
    flow_up_family,
    is_nontrivial_exists,
    lcm_scaling_factor,
    tree_generating_family,
    tree_membership,
    trivial_spline,
)
from gensplines.graphs import (
    GraphError,
    _bfs,
    build_graph,
    induced_subgraph,
    restrict,
    spanning_subgraph,
    spanning_tree,
    tree_path,
)
from gensplines.rings import (
    Ideal,
    RingElement,
    RingMismatchError,
    UnsupportedRingError,
    _Poly,
    ext_gcd,
)
from gensplines.splines import (
    Spline,
    decompose_at_vertex,
    is_nontrivial,
    scalar_mul,
    spline_add,
    spline_mul,
    spline_neg,
)

from conftest import (
    P,
    coefficients,
    make_graph,
    near_subgraphs,
    path_z,
    random_connected_graph,
    random_cycle,
    random_generator_element,
    random_path,
    random_tree,
    triangle_z,
)

Z = integers()


def zspline(graph, *ints):
    return Spline(graph, {v: Z.element(x)
                          for v, x in zip(graph.vertices, ints)})


class TestCycleSpline:
    def test_triangle_golden(self):
        g = triangle_z()
        p = cycle_spline(g, Z.element(0), Z.element(5),
                         [Z.element(2), Z.element(3)])
        assert p.as_tuple() == (Z.element(0), Z.element(10), Z.element(25))
        assert verify(g, p).ok

    def test_nonzero_base(self):
        g = triangle_z()
        p = cycle_spline(g, Z.element(7), Z.element(10),
                         [Z.element(4), Z.element(-3)])
        assert p.as_tuple() == (Z.element(7), Z.element(47), Z.element(17))
        assert verify(g, p).ok

    def test_choice_validation(self):
        g = triangle_z()
        with pytest.raises(ValueError, match="outside the ideal"):
            cycle_spline(g, Z.element(0), Z.element(1),
                         [Z.element(2), Z.element(3)])
        with pytest.raises(ValueError, match="step choices"):
            cycle_spline(g, Z.element(0), Z.element(5), [Z.element(2)])

    def test_requires_cycle(self):
        g = path_z([2, 3])
        with pytest.raises(GraphError, match="not a cycle"):
            cycle_spline(g, Z.element(0), Z.element(1), [Z.element(1), Z.element(1)])

    def test_declaration_order_must_trace_cycle(self):
        # edges form C4 but the declared order jumps across it
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "c", 2), ("c", "b", 3), ("b", "d", 4), ("a", "d", 5)])
        with pytest.raises(GraphError, match="declaration order"):
            cycle_spline(g, Z.element(0), Z.element(5),
                         [Z.element(2), Z.element(3), Z.element(4)])


class TestCycleFamily:
    def test_triangle_defaults(self):
        g = triangle_z()
        fam = cycle_generating_family(g)
        assert fam.vertex_order == ("v3", "v2", "v1")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(0), Z.element(0), Z.element(15))
        assert tuples[1] == (Z.element(0), Z.element(10), Z.element(10))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        assert fam.scaling_factors == (Z.element(15), Z.element(10), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok

    def test_zero_choice_rejected_over_domain(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 0), ("b", "c", 3), ("a", "c", 5)])
        with pytest.raises(ValueError, match="zero choices"):
            cycle_generating_family(g)

    @pytest.mark.parametrize("steps", [[2, 3, 6], [2]])
    def test_step_choice_count_checked(self, steps):
        with pytest.raises(ValueError, match=f"expected 2 step choices, got {len(steps)}"):
            cycle_generating_family(triangle_z(),
                                    step_choices=[Z.element(c) for c in steps])


def shuffled_tree(ring, rng, n_max, label=random_generator_element, n_min=1):
    """A random labeled tree with its vertices and edges declared in a
    shuffled order, each edge named either way round; label(ring, rng)
    draws each edge's generator."""
    n = rng.randint(n_min, n_max)
    verts = [f"v{i + 1}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return build_graph(ring, verts, [(u, v, Ideal([label(ring, rng)])) for u, v in edges])


def zm_span(family, modulus):
    """Every Z/m combination of the family's members, as residue tuples,
    grown one member at a time."""
    span = {(0,) * len(family.graph.vertices)}
    for member in family.members:
        values = [x.payload for x in member.as_tuple()]
        multiples = {tuple(c * x % modulus for x in values) for c in range(modulus)}
        span = {tuple((a + b) % modulus for a, b in zip(s, t))
                for s in span for t in multiples}
    return span


class TestTreeFamily:
    def test_p3_defaults(self):
        g = path_z([3, 2])
        fam = tree_generating_family(g)
        assert fam.vertex_order == ("v1", "v2", "v3")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(3), Z.element(0), Z.element(0))
        assert tuples[1] == (Z.element(2), Z.element(2), Z.element(0))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok
        g = make_graph(Z, ["v2", "v3", "v1"], [("v1", "v2", 3), ("v2", "v3", 2)])
        fam = tree_generating_family(g)
        assert fam.vertex_order == ("v3", "v2", "v1")
        assert fam.scaling_factors == (Z.element(2), Z.element(3), Z.element(1))

    def test_explicit_choices_checked(self):
        g = path_z([3, 2])
        with pytest.raises(ValueError, match="outside the ideal"):
            tree_generating_family(g, choices=[Z.element(4), Z.element(2)])

    @pytest.mark.parametrize("choices", [[3, 2, 6], [3]])
    def test_choice_count_checked(self, choices):
        with pytest.raises(ValueError, match=f"expected 2 step choices, got {len(choices)}"):
            tree_generating_family(path_z([3, 2]),
                                   choices=[Z.element(c) for c in choices])

    def test_star_is_rooted_at_the_last_vertex_reached(self):
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("c", "a", 2), ("c", "b", 3), ("c", "d", 5)])
        fam = tree_generating_family(g)
        assert fam.vertex_order == ("b", "a", "c", "d")
        assert fam.scaling_factors == tuple(map(Z.element, (3, 2, 5, 1)))
        assert fam.members[2].as_tuple() == tuple(map(Z.element, (5, 5, 5, 0)))

    def test_single_vertex_gives_the_unit_spline(self):
        fam = tree_generating_family(make_graph(Z, ["a"], []))
        assert [p.as_tuple() for p in fam.members] == [(Z.one,)]
        assert fam.vertex_order == ("a",)

    @pytest.mark.parametrize("vertices, edges", [
        (["a", "b", "c"], [("a", "b", 2), ("b", "c", 3), ("a", "c", 5)]),
        (["a", "b", "c", "d"], [("a", "b", 2), ("c", "d", 3)]),
        ([], []),
    ], ids=["cycle", "forest", "empty"])
    def test_non_tree_rejected(self, vertices, edges):
        with pytest.raises(GraphError, match="graph is not a tree"):
            tree_generating_family(make_graph(Z, vertices, edges))

    def test_zm_span_is_every_spline(self):
        """The tree theorem over Z/m, checked against the exhaustive
        enumeration on seeded trees, paths and non-paths alike."""
        rng = random.Random(17)
        non_paths = 0
        for _ in range(120):
            modulus = rng.randint(2, 12)
            graph = shuffled_tree(integers_mod(modulus), rng, n_max=5)
            non_paths += any(len(graph.neighbors(v)) > 2 for v in graph.vertices)
            fam = tree_generating_family(graph)
            assert zm_span(fam, modulus) == set(enumerate_splines(graph).members)
        assert non_paths >= 10


class TestTreeMembership:
    def test_records_are_frozen_and_keep_their_semantics(self):
        # the library's records are plain classes: RingSpec still compares
        # and hashes by value, no field can be set or deleted, and the
        # report's witnesses are built once
        assert integers_mod(6) == integers_mod(6) and integers_mod(6) != integers_mod(7)
        assert integers() == Z and hash(integers_mod(6)) == hash(integers_mod(6))
        assert len({poly_rational(), poly_rational(), Z, integers()}) == 2
        g = make_graph(Z, ["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        p = Spline(g, {"c": Z.element(0), "a": Z.element(4), "b": Z.element(9)})
        report = tree_membership(g, p)
        for record, name in ((Z, "kind"), (Z, "modulus"), (report, "ok"),
                             (report, "witnesses"), (verify(g, p), "ok"),
                             (spanning_tree(g), "root"), (g, "edges"), (p, "values")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert report.witnesses is report.witnesses
        assert repr(report) == "TreeMembershipReport(ok=True, failures=())"

    def test_star_positive_with_witnesses(self):
        g = make_graph(Z, ["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        p = Spline(g, {"c": Z.element(0), "a": Z.element(4), "b": Z.element(9)})
        report = tree_membership(g, p)
        assert report.ok and not report.failures
        # each witness decomposes the difference along the path
        for (u, v), parts in report.witnesses.items():
            total = Z.element(0)
            for edge, summand in parts.items():
                assert g.labels[edge].contains(summand)
                total = total + summand
            assert total == p[v] - p[u]

    def test_agrees_with_verify_negative(self):
        g = path_z([2, 3])
        p = zspline(g, 0, 1, 1)
        report = tree_membership(g, p)
        assert not report.ok
        assert ("v1", "v2") in report.failures

    def test_mod_ring_witnesses(self):
        R = integers_mod(12)
        g = make_graph(R, ["a", "b", "c"], [("a", "b", 4), ("b", "c", 6)])
        p = Spline(g, {"a": R.element(0), "b": R.element(8), "c": R.element(2)})
        assert verify(g, p).ok
        report = tree_membership(g, p)
        assert report.ok
        for (u, v), parts in report.witnesses.items():
            total = R.element(0)
            for edge, summand in parts.items():
                assert g.labels[edge].contains(summand)
                total = total + summand
            assert total == p[v] - p[u]

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError, match="not a tree"):
            tree_membership(triangle_z(), zspline(triangle_z(), 0, 0, 0))

    # verify and tree_membership share one host check
    @pytest.mark.parametrize("labels, host_labels", [([2, 3], [2]), ([2], [2, 3])],
                             ids=["extra-vertex", "missing-vertex"])
    def test_refuses_another_vertex_set(self, labels, host_labels):
        spline_host = path_z(labels)
        p = Spline(spline_host, {v: Z.element(0) for v in spline_host.vertices})
        for check in (verify, tree_membership):
            with pytest.raises(GraphError, match="not defined on this graph's vertices"):
                check(path_z(host_labels), p)

    def test_refuses_another_ring(self):
        tree = make_graph(integers_mod(6), ["a", "b"], [("a", "b", 2)])
        p = zspline(make_graph(Z, ["a", "b"], [("a", "b", 2)]), 0, 4)
        for check in (verify, tree_membership):
            with pytest.raises(RingMismatchError):
                check(tree, p)
        # equal rings built apart still mix
        R = integers_mod(6)
        q = Spline(make_graph(R, ["a", "b"], [("a", "b", 2)]),
                   {"a": R.element(0), "b": R.element(4)})
        assert verify(tree, q).ok and tree_membership(tree, q).ok


class TestExtendByZero:
    def test_triangle_extension(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        p = Spline(sub, {"v1": Z.element(2), "v2": Z.element(4)})
        out, factor = extend_by_zero_with_factor(g, sub, p)
        # excluded edges <3> and <5> contribute the factor 15
        assert factor == Z.element(15)
        assert out.as_tuple() == (Z.element(30), Z.element(60), Z.element(0))
        assert verify(g, out).ok

    def test_explicit_choices(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        p = trivial_spline(sub, Z.element(1))
        out = extend_by_zero(g, sub, p, {("v2", "v3"): Z.element(6),
                                         ("v1", "v3"): Z.element(10)})
        assert out.as_tuple() == (Z.element(60), Z.element(60), Z.element(0))
        assert verify(g, out).ok

    def test_choice_keyed_by_the_reversed_edge(self):
        g = triangle_z()
        sub = restrict(g, ["v1"], [])
        _, factor = extend_by_zero_with_factor(g, sub, trivial_spline(sub, Z.element(1)),
                                               {("v3", "v2"): Z.element(6)})
        assert factor == Z.element(60)

    @pytest.mark.parametrize("keys", [[("v2", "v3"), ("v3", "v2")],
                                      [("v3", "v2"), ("v2", "v3")]], ids=["23-32", "32-23"])
    def test_choice_naming_an_edge_twice_raises(self, keys):
        g = triangle_z()
        sub = restrict(g, ["v1"], [])
        with pytest.raises(GraphError, match="'v2'-'v3' is named twice"):
            extend_by_zero(g, sub, trivial_spline(sub, Z.element(1)),
                           dict(zip(keys, [Z.element(3), Z.element(6)])))

    def test_choice_key_must_be_an_edge(self):
        g = make_graph(Z, ["v1", "v2", "v3"], [("v1", "v2", 2), ("v2", "v3", 3)])
        sub = restrict(g, ["v1"], [])
        with pytest.raises(GraphError, match="no edge"):
            extend_by_zero(g, sub, trivial_spline(sub, Z.element(1)),
                           {("v1", "v3"): Z.element(5)})

    def test_rejects_unverified_input(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        bad = Spline(sub, {"v1": Z.element(0), "v2": Z.element(1)})
        with pytest.raises(ValueError, match="fails verification"):
            extend_by_zero(g, sub, bad)

    def test_zero_factor_warns(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 0), ("a", "c", 5)])
        sub = restrict(g, ["a", "b"], [("a", "b")])
        p = trivial_spline(sub, Z.element(1))
        with pytest.warns(UserWarning, match="zero factor"):
            out = extend_by_zero(g, sub, p)
        assert verify(g, out).ok

    def test_excluded_edges(self):
        g = triangle_z()
        sub = restrict(g, ["v1", "v2"], [("v1", "v2")])
        assert excluded_edges(g, sub) == [("v2", "v3"), ("v1", "v3")]


class TestOneSubgraphRelation:
    def test_excluded_edges_are_host_keys(self):
        # whatever the subgraph's vertex order and edge endpoints
        g = triangle_z()
        sub = build_graph(Z, ["v3", "v2", "v1"], [("v2", "v1", g.labels["v1", "v2"])])
        assert excluded_edges(g, sub) == [("v2", "v3"), ("v1", "v3")]
        assert lcm_scaling_factor(g, sub) == Z.element(15)

    @pytest.mark.parametrize("bad", range(3))
    def test_refuses_a_non_subgraph(self, bad):
        for g in (triangle_z(), make_graph(integers_mod(6), ["a", "b", "c"],
                                           [("a", "b", 2), ("b", "c", 3)])):
            with pytest.raises(GraphError, match="^not a subgraph of the host$"):
                excluded_edges(g, near_subgraphs(g)[bad])
        g = triangle_z()
        with pytest.raises(GraphError, match="^not a subgraph of the host$"):
            lcm_scaling_factor(g, near_subgraphs(g)[bad])

    def test_lcm_refuses_a_relabelled_edge_alone(self):
        g = triangle_z()
        sub = make_graph(Z, ["v1", "v2"], [("v1", "v2", 7)])
        with pytest.raises(GraphError, match="^not a subgraph of the host$"):
            lcm_scaling_factor(g, sub)

    @pytest.mark.parametrize("bad", range(3))
    def test_extend_by_zero_tests_the_subgraph_before_the_spline(self, bad):
        g = triangle_z()
        sub = near_subgraphs(g)[bad]
        p = Spline(sub, {v: sub.ring.element(int(v == "v1")) for v in sub.vertices})
        assert not verify(sub, p).ok
        with pytest.raises(GraphError, match="^not a subgraph of the host$"):
            extend_by_zero(g, sub, p)


class TestLcmScaling:
    def test_triangle(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 2), ("b", "c", 4), ("a", "c", 6)])
        sub = restrict(g, ["a", "b"], [("a", "b")])
        assert lcm_scaling_factor(g, sub) == Z.element(12)

    def test_no_excluded_edges(self):
        g = triangle_z()
        assert lcm_scaling_factor(g, spanning_subgraph(g, g.edges)) == Z.element(1)

    def test_mod_unsupported(self):
        R = integers_mod(6)
        g = make_graph(R, ["a", "b"], [("a", "b", 2)])
        sub = restrict(g, ["a"], [])
        with pytest.raises(UnsupportedRingError):
            lcm_scaling_factor(g, sub)


class TestFlowUp:
    def test_p3_golden(self):
        g = path_z([3, 2])
        fam = flow_up_family(g)
        assert fam.vertex_order == ("v1", "v2", "v3")
        tuples = [p.as_tuple() for p in fam.members]
        assert tuples[0] == (Z.element(6), Z.element(0), Z.element(0))
        assert tuples[1] == (Z.element(2), Z.element(2), Z.element(0))
        assert tuples[2] == (Z.element(1), Z.element(1), Z.element(1))
        assert fam.scaling_factors == (Z.element(6), Z.element(2), Z.element(1))
        for p in fam.members:
            assert verify(g, p).ok

    def test_k4_members_verify_and_triangular(self, k4_graph):
        from gensplines.analysis import check_triangular_family
        fam = flow_up_family(k4_graph)
        assert fam.vertex_order == ("v1", "v2", "v3", "v4")
        for p in fam.members:
            assert verify(k4_graph, p).ok
        assert check_triangular_family(fam)

    def test_alternate_root(self):
        g = path_z([3, 2])
        fam = flow_up_family(g, root="v3")
        assert fam.vertex_order == ("v3", "v2", "v1")
        assert fam.members[0]["v3"] == Z.element(6)


def reference_flow_up(graph, root=None):
    """Flow-up by explicit extension by zero: restrict to the root-to-v
    tree path, take the unit spline there, and extend it."""
    skeleton = spanning_tree(graph, root)
    order = sorted(graph.vertices,
                   key=lambda v: (skeleton.depth[v], graph.index(v)))
    members, factors = [], []
    for v in order:
        path = tree_path(skeleton, skeleton.root, v)
        path_edges = [(path[k], path[k + 1]) for k in range(len(path) - 1)]
        sub = restrict(graph, path, path_edges)
        member, factor = extend_by_zero_with_factor(
            graph, sub, trivial_spline(sub, graph.ring.one))
        members.append(member)
        factors.append(factor)
    return members, tuple(order), tuple(factors)


def recorded_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestFlowUpClosedForm:
    """flow_up_family builds its members in closed form; they must equal
    the explicit extension-by-zero construction."""

    CASES = [
        make_graph(Z, ["a", "b", "c", "d"],
                   [("a", "b", 2), ("b", "c", 3), ("c", "d", 5),
                    ("a", "d", 7), ("a", "c", 0)]),
        make_graph(integers_mod(6), ["a", "b", "c", "d"],
                   [("a", "b", 2), ("b", "c", 3), ("c", "d", 4), ("b", "d", 1)]),
        make_graph(poly_rational(), ["a", "b", "c", "d", "e"],
                   [("a", "b", [P(0, 1)]), ("b", "c", [P(-1, 1)]),
                    ("c", "d", [P(1, 0, 1)]), ("d", "e", [P(2)]),
                    ("a", "e", [P(0, 0, 1)]), ("b", "d", [P(3, 1)])]),
    ]

    @pytest.mark.parametrize("graph", CASES, ids=["Z", "Z/6", "Q[x]"])
    @pytest.mark.parametrize("root", [None, "c"])
    def test_matches_extension_by_zero(self, graph, root):
        fam, fam_warnings = recorded_warnings(flow_up_family, graph, root)
        (members, order, factors), ref_warnings = recorded_warnings(
            reference_flow_up, graph, root)
        assert fam.vertex_order == order
        assert fam.scaling_factors == factors
        assert list(fam.members) == members
        assert fam_warnings == ref_warnings

    def test_zero_edge_warns_per_member(self):
        _, messages = recorded_warnings(flow_up_family, self.CASES[0])
        assert messages and all("('a', 'c') contributes a zero factor" in m
                                for m in messages)


def seeded_graphs(ring, seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_connected_graph(ring, rng, **kwargs) for _ in range(count)]


def flow_up_equivalence_cases():
    """Seeded graphs with zero labels over Z and Q[x], and Z/6 and Z/12
    graphs whose label product is 0 mod m while some factors are not."""
    Z6, Z12 = integers_mod(6), integers_mod(12)
    cases = seeded_graphs(Z, 61, 8, n_max=6, e_max=10)
    cases += seeded_graphs(poly_rational(), 62, 6, n_max=6, e_max=10)
    cases += seeded_graphs(Z6, 63, 6, n_max=6, e_max=10)
    cases += seeded_graphs(Z12, 64, 6, n_max=6, e_max=10)
    cases += [
        make_graph(Z, ["a", "b", "c", "d"],
                   [("a", "b", 0), ("b", "c", 4), ("c", "d", 0), ("a", "d", 6)]),
        make_graph(Z6, ["a", "b", "c", "d"],
                   [("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("a", "c", 1)]),
        make_graph(Z12, ["a", "b", "c", "d", "e"],
                   [("a", "b", 4), ("b", "c", 3), ("c", "d", 2), ("d", "e", 6),
                    ("a", "e", 9), ("b", "d", 0)]),
    ]
    return cases


class TestFlowUpIncremental:
    """flow_up_family grows each factor from its BFS parent's; every root
    must give the members, order, factors and warnings of the explicit
    extension-by-zero construction."""

    def test_cases_cover_zero_products_and_zero_labels(self):
        cases = flow_up_equivalence_cases()
        has_zero = [g for g in cases if any(g.labels[e].is_zero for e in g.edges)]
        assert {g.ring.kind for g in has_zero} >= {"integers", "poly-rational"}
        for m in (6, 12):
            zero_product = [
                g for g in cases if g.ring == integers_mod(m)
                and all(not g.labels[e].is_zero for e in g.edges)
                and math.prod(g.labels[e].canonical.payload for e in g.edges) % m == 0
                and any(not f.is_zero for f in flow_up_family(g).scaling_factors[:-1])]
            assert zero_product

    @pytest.mark.parametrize("index", range(len(flow_up_equivalence_cases())))
    def test_matches_extension_by_zero_for_every_root(self, index):
        graph = flow_up_equivalence_cases()[index]
        for root in graph.vertices:
            fam, fam_warnings = recorded_warnings(flow_up_family, graph, root)
            (members, order, factors), ref_warnings = recorded_warnings(
                reference_flow_up, graph, root)
            assert fam.vertex_order == order
            assert fam.scaling_factors == factors
            assert list(fam.members) == members
            assert fam_warnings == ref_warnings


def library_built(ring, rng):
    """Every spline that the families, extend_by_zero, decompose_at_vertex
    and the spline arithmetic build on seeded graphs over ring."""
    # nonzero labels over Z/m, and few chords, so that the products over
    # the edges off a path are not all zero mod m
    nonzero = ring.modulus is not None
    graph = random_connected_graph(ring, rng, n_max=6, e_max=7, nonzero=nonzero)
    tree = random_tree(ring, rng, n_max=6, nonzero=nonzero)
    cycle = random_cycle(ring, rng, n_max=6)
    p, q = random_member(graph, rng), random_member(graph, rng)
    keep = rng.sample(graph.vertices, rng.randint(1, len(graph.vertices)))
    sub = induced_subgraph(graph, keep)
    r = random_generator_element(ring, rng)
    built = [*flow_up_family(graph).members, *tree_generating_family(tree).members,
             *cycle_generating_family(cycle).members, p, q,
             extend_by_zero(graph, sub, random_member(sub, rng)),
             decompose_at_vertex(graph, p, rng.choice(graph.vertices))[1],
             spline_add(p, q), spline_mul(p, q), spline_neg(p), scalar_mul(r, p)]
    flag, witness = is_nontrivial_exists(graph) if ring.is_integral_domain else (False, None)
    return built + [witness] * flag


class TestCanonicalValues:
    """A spline the library builds without Spline's checks must be one
    that Spline would accept, and every payload canonical: an int over Z,
    a residue in [0, m) over Z/m, and over Q[x] the _Poly that its own
    coefficients rebuild."""

    RINGS = [Z, integers_mod(12), integers_mod(1024), integers_mod(7), poly_rational()]

    @pytest.mark.filterwarnings("ignore:edge")
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("seed", range(12))
    def test_library_built_splines_are_canonical(self, ring, seed):
        for p in library_built(ring, random.Random(seed)):
            graph = p.graph
            assert graph.ring == ring
            assert p == Spline(graph, dict(p.values))
            for x in p.values.values():
                if ring.kind == "poly-rational":
                    assert type(x.payload) is _Poly
                    rebuilt = ring.element([f"{n}/{d}" for n, d in x.payload.ratios()])
                    assert x.payload == rebuilt.payload
                else:
                    assert type(x.payload) is int
                    assert ring.modulus is None or 0 <= x.payload < ring.modulus


class TestScalingFactorsAreTheDiagonal:
    """Each family's scaling factors are its members' values on the
    vertex order: member i at vertex_order[i]."""

    RINGS = [Z, integers_mod(12), poly_rational()]

    @staticmethod
    def check(family):
        assert family.scaling_factors == tuple(
            m[v] for m, v in zip(family.members, family.vertex_order))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_path_and_cycle_families(self, ring):
        rng = random.Random(91)
        for _ in range(6):
            self.check(tree_generating_family(random_path(ring, rng)))
            self.check(cycle_generating_family(random_cycle(ring, rng)))
            self.check(tree_generating_family(random_tree(ring, rng)))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_flow_up_family_for_every_root(self, ring):
        for graph in seeded_graphs(ring, 92, 6, n_max=6, e_max=10):
            for root in graph.vertices:
                self.check(recorded_warnings(flow_up_family, graph, root)[0])


def reference_bezout_chain(elements):
    """gcd d of a list plus cofactors x_i with sum(x_i * g_i) = d."""
    d = elements[0]
    coeffs = [d.ring.one]
    for g in elements[1:]:
        d2, a, b = ext_gcd(d, g)
        coeffs = [a * c for c in coeffs] + [b]
        d = d2
    return d, coeffs


def reference_tree_membership(graph, p):
    """Per-pair path sums: a fresh Bezout chain over each pair's tree path,
    over Z/m on lifts to Z with m as a last generator."""
    ring = graph.ring
    skeleton = spanning_tree(graph)
    witnesses, failures = {}, []
    verts = graph.vertices
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            walk = tree_path(skeleton, u, v)
            edges = [graph.edge_key(a, b) for a, b in zip(walk, walk[1:])]
            gens = [graph.labels[e].canonical for e in edges]
            diff = p[v] - p[u]
            extra = []
            if ring.kind == "integers-mod":
                gens = [Z.element(g.payload) for g in gens]
                extra = [Z.element(ring.modulus)]
                diff = Z.element(diff.payload)
            elif all(g.is_zero for g in gens):
                if diff.is_zero:
                    witnesses[(u, v)] = {e: ring.zero for e in edges}
                else:
                    failures.append((u, v))
                continue
            d, coeffs = reference_bezout_chain(gens + extra)
            if not d.divides(diff):
                failures.append((u, v))
                continue
            scale = diff.exact_div(d)
            witnesses[(u, v)] = {e: ring.element(coeffs[k] * gens[k] * scale)
                                 for k, e in enumerate(edges)}
    return witnesses, tuple(failures)


def tree_family_spline(tree, coeff):
    """The tree generating family's members summed with weights coeff()."""
    members = tree_generating_family(tree).members
    coeffs = [coeff() for _ in members]
    return Spline(tree, {v: sum((c * m[v] for c, m in zip(coeffs, members)), tree.ring.zero)
                         for v in tree.vertices})


def holding_parts(tree, p):
    """(failing edges, the vertex sets of the edges that verify accepts)."""
    failing = {e for e, _ in verify(tree, p).violations}
    holding = spanning_subgraph(tree, [e for e in tree.edges if e not in failing])
    return failing, holding.components()


class TestTreeMembershipIncremental:
    """tree_membership grows each source's chains along its BFS tree; the
    witnesses and failures must be those of the per-pair chains."""

    RINGS = [Z, integers_mod(6), integers_mod(12), poly_rational()]

    @staticmethod
    def splines(tree, rng):
        """Flow-up combinations (members) and random labelings (mostly not)."""
        ring = tree.ring
        members = recorded_warnings(flow_up_family, tree)[0].members
        out = []
        for _ in range(2):
            coeffs = [random_generator_element(ring, rng) for _ in members]
            out.append(Spline(tree, {v: sum((c * m[v] for c, m in zip(coeffs, members)),
                                            ring.zero) for v in tree.vertices}))
            out.append(Spline(tree, {v: random_generator_element(ring, rng)
                                     for v in tree.vertices}))
        return out

    def check(self, tree, p):
        report = tree_membership(tree, p)
        witnesses, failures = reference_tree_membership(tree, p)
        assert list(report.witnesses.items()) == list(witnesses.items())
        assert report.failures == failures
        assert report.ok == (not failures) == verify(tree, p).ok

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_seeded_trees(self, ring):
        rng = random.Random(71)
        for _ in range(12):
            tree = random_tree(ring, rng, n_max=7)
            for p in self.splines(tree, rng):
                self.check(tree, p)
        # the benchmark's tree shape: vertex i hangs below (i-1)//2 or its
        # successor, labels 1..12
        n = 30
        verts = [f"v{i}" for i in range(n)]
        labels = [k % 12 + 1 for k in range(n - 1)]
        rng.shuffle(labels)
        tree = make_graph(ring, verts, [
            (verts[rng.randrange((i - 1) // 2, min(i, (i - 1) // 2 + 2))], verts[i],
             labels[i - 1]) for i in range(1, n)])
        p = self.splines(tree, rng)[0]
        self.check(tree, p)
        bumped = rng.choice(verts)
        self.check(tree, Spline(tree, {**p.values, bumped: p[bumped] + ring.one}))

    @pytest.mark.parametrize("ring", [Z, poly_rational()], ids=str)
    def test_all_zero_paths(self, ring):
        # b-c-d is joined by zero labels, so their values must agree
        tree = make_graph(ring, ["a", "b", "c", "d", "e"],
                          [("a", "b", 2), ("b", "c", 0), ("c", "d", 0), ("c", "e", 3)])
        two, seven = ring.element(2), ring.element(7)
        self.check(tree, Spline(tree, {"a": ring.zero, "b": two, "c": two,
                                       "d": two, "e": seven + two}))
        self.check(tree, Spline(tree, {"a": ring.zero, "b": two, "c": two,
                                       "d": seven, "e": two}))

    def test_zero_labels_mod_m(self):
        R = integers_mod(12)
        tree = make_graph(R, ["a", "b", "c", "d"],
                          [("a", "b", 0), ("b", "c", 0), ("b", "d", 8)])
        for values in [(5, 5, 5, 1), (5, 5, 6, 1), (0, 0, 0, 4)]:
            self.check(tree, Spline(tree, {v: R.element(x)
                                           for v, x in zip(tree.vertices, values)}))

    # deciding tests only the pairs that a failing edge separates; the
    # pairs within a part of the holding edges pass unseen

    @staticmethod
    def hub_tree(ring):
        """Hub h with a unit-labeled arm to a, a zero-labeled arm b-f, and
        a path c-d-e whose last edge is unit-labeled; the hub is declared
        neither first nor last.  Over Q[x] the labels are x - k, since
        nonzero constants are units there."""
        def label(k):
            return P(-k, 1) if ring.kind == "poly-rational" else k
        return make_graph(ring, ["a", "c", "h", "e", "b", "d", "f"], [
            ("h", "a", 1), ("h", "b", 0), ("b", "f", label(4)),
            ("h", "c", label(2)), ("c", "d", label(3)), ("d", "e", 1)])

    def check_parts(self, tree, p):
        """check, and every pair within a part of the holding edges has a
        witness."""
        self.check(tree, p)
        failing, parts = holding_parts(tree, p)
        witnesses = tree_membership(tree, p).witnesses
        for part in parts:
            for u, v in itertools.combinations(sorted(part, key=tree.index), 2):
                assert (u, v) in witnesses
        return failing

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_bumps_against_the_per_pair_chains(self, ring):
        rng = random.Random(73)
        tree = self.hub_tree(ring)

        def coeff():
            return random_generator_element(ring, rng)

        for _ in range(3):
            p = tree_family_spline(tree, coeff)
            assert self.check_parts(tree, p) == set()
            for bumped in (["e"], ["a"], ["h"], ["f", "c"], ["e", "h"]):
                q = Spline(tree, {**p.values,
                                  **{v: p[v] + tree.ring.one for v in bumped}})
                # unit-labeled edges hold, so a lone bump at a passes
                assert self.check_parts(tree, q) == {
                    e for e in tree.edges
                    if (e[0] in bumped) != (e[1] in bumped) and not tree.labels[e].is_unit}
        for _ in range(12):
            tree = random_tree(ring, rng, n_max=7)
            p = tree_family_spline(tree, coeff)
            for k in (1, 2):
                bumped = rng.sample(tree.vertices, min(k, len(tree.vertices)))
                self.check_parts(tree, Spline(tree, {**p.values,
                                                     **{v: p[v] + coeff() for v in bumped}}))


def product_of_roots(rng):
    """A product of (x - a)^k, a in {-1, 0, 1, 2}, k <= 2, times a
    nonzero rational; the constant alone when every k is 0."""
    coeffs = [rng.choice((-2, -1, 1, 3))]
    for a in (-1, 0, 1, 2):
        for _ in range(rng.randint(0, 2)):
            coeffs = [x - a * y for x, y in zip([0] + coeffs, coeffs + [0])]
    return [f"{c}/2" for c in coeffs] if rng.random() < 0.5 else coeffs


class TestTreeMembershipLevels:
    """The levels decide tree membership: their failures equal the per-pair
    Bezout chains' of reference_tree_membership, in the same order, and do
    not depend on the declaration order."""

    RINGS = [Z, integers_mod(12), integers_mod(36), integers_mod(360), poly_rational()]
    Z_LABELS = (0, 1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 5, 10, 25)

    @classmethod
    def label(cls, ring, rng):
        """Zero, a unit, or a non-unit: a product of small prime powers
        over Z, a divisor of m or a residue over Z/m, a product_of_roots
        over Q[x]."""
        if ring.kind == "integers":
            return ring.element(rng.choice(cls.Z_LABELS))
        if ring.kind == "integers-mod":
            m = ring.modulus
            divisor = rng.choice([d for d in range(1, m) if m % d == 0])
            return ring.element(rng.choice((0, divisor, divisor, rng.randrange(m))))
        return rng.choice((ring.zero, ring.element(rng.choice((-2, 1, "1/3"))),
                           *[ring.element(product_of_roots(rng))] * 8))

    @classmethod
    def value(cls, ring, rng):
        if ring.kind == "poly-rational":
            return rng.choice((ring.zero, ring.one, ring.element(product_of_roots(rng)),
                               ring.element([rng.randint(-3, 3) for _ in range(3)])))
        if ring.kind == "integers" and rng.random() < 0.5:
            return ring.element(rng.choice(cls.Z_LABELS) * rng.randint(-3, 3))
        return ring.element(rng.randint(-40, 40))

    @classmethod
    def tree(cls, ring, rng):
        return shuffled_tree(ring, rng, 12, label=cls.label)

    @classmethod
    def tuples(cls, tree, rng):
        """A random tuple, a spline, and the spline bumped at one and at two
        vertices."""
        ring = tree.ring

        def value():
            return cls.value(ring, rng)

        p = tree_family_spline(tree, value)
        out = [Spline(tree, {v: value() for v in tree.vertices}), p]
        for k in (1, 2):
            bumped = rng.sample(tree.vertices, min(k, len(tree.vertices)))
            out.append(Spline(tree, {**p.values, **{v: p[v] + value() for v in bumped}}))
        return out

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_failures_match_the_per_pair_chains(self, ring):
        rng = random.Random(260)
        seen = {"failed": 0, "passed": 0, "zero": 0, "unit": 0}
        for _ in range(64):
            tree = self.tree(ring, rng)
            labels = [tree.labels[e] for e in tree.edges]
            seen["zero"] += any(label.is_zero for label in labels)
            seen["unit"] += any(label.is_unit for label in labels)
            for p in self.tuples(tree, rng):
                failures = tree_membership(tree, p).failures
                assert failures == reference_tree_membership(tree, p)[1]
                seen["failed" if failures else "passed"] += 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("ring", [Z, integers_mod(12), poly_rational()], ids=str)
    def test_failures_do_not_depend_on_declaration_order(self, ring):
        # permuting the vertex and edge declarations, and naming edges
        # the other way round, leaves the failures as unordered pairs
        rng = random.Random(261)
        failing = 0
        for _ in range(40):
            tree = self.tree(ring, rng)
            for p in self.tuples(tree, rng):
                failures = {frozenset(f) for f in tree_membership(tree, p).failures}
                failing += bool(failures)
                for _ in range(2):
                    verts = list(tree.vertices)
                    rng.shuffle(verts)
                    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges]
                    rng.shuffle(edges)
                    permuted = build_graph(ring, verts, [
                        (u, v, tree.labels[tree.edge_key(u, v)]) for u, v in edges])
                    report = tree_membership(permuted, Spline(permuted, p.values))
                    assert {frozenset(f) for f in report.failures} == failures
        assert failing >= 40

    def test_scale_gate(self):
        # n = 3,200 on the benchmark's tree shape, vertex i below (i-1)//2
        # or its successor, with labels in {2, 3, 4, 6, 9, 12} and a random
        # tuple; the per-pair path gcds took seconds at n = 800
        rng = random.Random(3200)
        n = 3200
        verts = [f"v{i}" for i in range(n)]
        tree = make_graph(Z, verts, [
            (verts[rng.randrange((i - 1) // 2, min(i, (i - 1) // 2 + 2))], verts[i],
             rng.choice((2, 3, 4, 6, 9, 12))) for i in range(1, n)])
        p = Spline(tree, {v: Z.element(rng.randint(-10 ** 6, 10 ** 6)) for v in verts})
        start = time.perf_counter()
        report = tree_membership(tree, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"{elapsed:.2f} s"
        # sampled pairs against the path gcd rule
        failures = set(report.failures)
        skeleton = spanning_tree(tree)
        for _ in range(300):
            u, v = sorted(rng.sample(verts, 2), key=tree.index)
            walk = tree_path(skeleton, u, v)
            d = math.gcd(*(tree.label(a, b).canonical.payload for a, b in zip(walk, walk[1:])))
            assert ((u, v) in failures) == bool((p[v] - p[u]).payload % d)
        assert len(failures) > n


class TestManyExponents:
    """Labels with many distinct exponents per base element, so that the
    levels skip runs of levels where no edge joins: the failures still
    equal the per-pair Bezout chains', and a huge exponent costs little
    memory."""

    RINGS = [Z, integers_mod(5184), poly_rational()]  # 5184 = 2^6 3^4
    EXPONENTS = ((0, 1, 2, 3, 5, 6), (0, 1, 2, 4), (0, 1, 2, 3, 5))

    @classmethod
    def label(cls, ring, rng):
        """Zero, or 2^a 3^b over Z and Z/5184, or x^a (x - 1)^b (x + 1)^c
        over Q[x], each exponent drawn from EXPONENTS."""
        if rng.random() < 0.1:
            return ring.zero
        if ring.kind != "poly-rational":
            return ring.element(2 ** rng.choice(cls.EXPONENTS[0])
                                * 3 ** rng.choice(cls.EXPONENTS[1]))
        coeffs = [1]
        for root in (0, 1, -1):
            for _ in range(rng.choice(cls.EXPONENTS[2])):
                coeffs = [x - root * y for x, y in zip([0] + coeffs, coeffs + [0])]
        return ring.element(coeffs)

    @classmethod
    def value(cls, ring, rng):
        """A label-shaped element times a small one, so that values agree
        to many digits."""
        small = (ring.element([rng.randint(-2, 2), rng.randint(-2, 2)])
                 if ring.kind == "poly-rational" else ring.element(rng.randint(-3, 3)))
        return cls.label(ring, rng) * small + ring.element(rng.choice((0, 0, 1)))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_failures_match_the_per_pair_chains(self, ring):
        rng = random.Random(300)
        seen = {"failed": 0, "passed": 0, "zero": 0}
        for _ in range(40):
            tree = shuffled_tree(ring, rng, 12, label=self.label, n_min=2)
            seen["zero"] += any(tree.labels[e].is_zero for e in tree.edges)

            def value():
                return self.value(ring, rng)

            # two valid tuples, one bumped at one or two vertices, one random
            valid = [tree_family_spline(tree, value) for _ in range(2)]
            bumped = {v: valid[0][v] + value()
                      for v in rng.sample(tree.vertices, rng.randint(1, 2))}
            tuples = valid + [Spline(tree, {**valid[0].values, **bumped}),
                              Spline(tree, {v: value() for v in tree.vertices})]
            for p in tuples:
                failures = tree_membership(tree, p).failures
                assert failures == reference_tree_membership(tree, p)[1]
                seen["failed" if failures else "passed"] += 1
        assert min(seen.values()) >= 10, seen

    def test_a_huge_exponent_takes_little_memory(self):
        # a-b<2>, b-c<2^20000> with values 0, 0, 1: only the levels 19999
        # and 0 are visited, and no list of every power is held
        tree = make_graph(Z, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 2 ** 20000)])
        p = Spline(tree, {"a": Z.zero, "b": Z.zero, "c": Z.one})
        tracemalloc.start()
        try:
            failures = tree_membership(tree, p).failures
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == (("a", "c"), ("b", "c"))
        assert peak < 4 * 10 ** 6, f"{peak / 1e6:.1f} MB"


class TestWorkCounts:
    """Each flow-up factor and Bezout chain extends its BFS parent's, so
    the ring work grows with E and n^2, not with n * E or path lengths;
    tree membership decides from the labels' levels, with no gcd per pair."""

    @staticmethod
    def counting(monkeypatch):
        counts = {"mul": 0, "exact_div": 0, "gcd": 0, "ext_gcd": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RingElement, "__mul__", counted("mul", RingElement.__mul__))
        monkeypatch.setattr(RingElement, "exact_div",
                            counted("exact_div", RingElement.exact_div))
        # the decision's gcds are the coprime base's, taken on payloads
        for ops in (Z.ops, poly_rational().ops):
            monkeypatch.setattr(ops, "gcd", staticmethod(counted("gcd", ops.gcd)))
        monkeypatch.setattr(construct, "ext_gcd", counted("ext_gcd", construct.ext_gcd))
        return counts

    def test_flow_up_divides_once_per_member(self, monkeypatch):
        # the factors are computed on payloads: count at _Poly's product
        # and the Q[x] quotient that the ring's ops table holds
        rng = random.Random(81)
        n = 12
        pairs = {(rng.randrange(i), i) for i in range(1, n)}
        while len(pairs) < 2 * n - 1:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        graph = make_graph(poly_rational(), [f"v{i}" for i in range(n)],
                           [(f"v{i}", f"v{j}", [P(rng.randint(-3, 3), 1)])
                            for i, j in sorted(pairs)])
        ops = graph.ring.ops
        products, quotients = [], []
        mul, quotient = _Poly.__mul__, ops.quotient

        def recorded(a, b):
            products.append(mul(a, b))
            return products[-1]

        monkeypatch.setattr(_Poly, "__mul__", recorded)
        monkeypatch.setattr(ops, "quotient",
                            staticmethod(lambda a, b: quotients.append(b) or quotient(a, b)))
        flow_up_family(graph)
        assert len(quotients) == n - 1
        assert len(products) == 2 * n - 2
        # the pairwise product's partial products hold at most
        # deg P * ceil(log2 E) + E coefficients (138 here: it builds 129,
        # a running product from one 299)
        labels = len(graph.edges)
        degree = sum(len(coefficients(graph.labels[e].canonical)) - 1 for e in graph.edges)
        assert (sum(len(r.prim) for r in products)
                <= degree * math.ceil(math.log2(labels)) + labels)

    @staticmethod
    def seeded_tree(rng, n):
        verts = [f"v{i}" for i in range(n)]
        tree = make_graph(Z, verts, [(verts[rng.randrange(max(0, i - 2), i)], verts[i],
                                      rng.randint(2, 30)) for i in range(1, n)])
        return tree, Spline(tree, {v: Z.element(rng.randint(-50, 50)) for v in verts})

    def test_tree_membership_one_step_per_pair(self, monkeypatch):
        n = 16
        tree, p = self.seeded_tree(random.Random(82), n)
        counts = self.counting(monkeypatch)
        tree_membership(tree, p).witnesses
        assert counts["ext_gcd"] <= n * (n - 1)

    @staticmethod
    def valid_spline(tree, rng):
        return tree_family_spline(tree, lambda: Z.element(rng.randint(-9, 9)))

    @pytest.mark.parametrize("ring", [Z, integers_mod(12), poly_rational()], ids=str)
    def test_tree_membership_decides_on_payloads(self, monkeypatch, ring):
        # deciding a failing tuple multiplies no ring elements, takes no
        # ext_gcd and builds no RingElement at all; the Bezout terms wait
        # for the first read of witnesses, built once
        rng = random.Random(84)
        tree = random_tree(ring, rng, n_max=12)
        while len(tree.vertices) < 6:
            tree = random_tree(ring, rng, n_max=12)
        p = tree_family_spline(tree, lambda: random_generator_element(ring, rng))
        q = Spline(tree, {**p.values, tree.vertices[2]: p[tree.vertices[2]] + ring.one})
        for r in (q, Spline(tree, {v: random_generator_element(ring, rng)
                                   for v in tree.vertices})):
            counts = self.counting(monkeypatch)
            built = []
            init = RingElement.__init__
            monkeypatch.setattr(RingElement, "__init__",
                                lambda x, *args: built.append(args) or init(x, *args))
            report = tree_membership(tree, r)
            assert built == []
            assert counts["ext_gcd"] == counts["mul"] == counts["exact_div"] == 0
            monkeypatch.setattr(RingElement, "__init__", init)
            assert report.witnesses is report.witnesses
            assert counts["ext_gcd"] > 0
        assert not report.ok

    def test_tree_membership_decides_a_spline_without_gcd(self, monkeypatch):
        # every edge holds, so every path does: n - 1 divides decide
        rng = random.Random(85)
        tree, _ = self.seeded_tree(rng, 16)
        p = self.valid_spline(tree, rng)
        counts = self.counting(monkeypatch)
        report = tree_membership(tree, p)
        assert report.ok and report.failures == ()
        assert counts == {"mul": 0, "exact_div": 0, "gcd": 0, "ext_gcd": 0}

    LABELS = (2, 3, 4, 6, 9, 12, 5, 10, 25, 1)

    @classmethod
    def labeled_tree(cls, rng, n):
        """A seeded tree whose edges take LABELS in turn, in declaration
        order, so that every n >= 11 sees one label set in one order."""
        verts = [f"v{i}" for i in range(n)]
        return make_graph(Z, verts, [(verts[rng.randrange(max(0, i - 2), i)], verts[i],
                                      cls.LABELS[(i - 1) % len(cls.LABELS)])
                                     for i in range(1, n)])

    @pytest.mark.parametrize("seed", [86, 87, 88])
    def test_tree_membership_takes_no_gcd_per_pair(self, monkeypatch, seed):
        # deciding takes the gcds of the labels' coprime base, not one per
        # pair: on one label set, a bumped spline and a random tuple take
        # as many at n = 64 as at n = 16
        gcds = {}
        for n in (16, 64):
            rng = random.Random(seed)
            tree = self.labeled_tree(rng, n)
            p = self.valid_spline(tree, rng)
            bumped = rng.choice(tree.vertices)
            tuples = [Spline(tree, {**p.values, bumped: p[bumped] + Z.one}),
                      Spline(tree, {v: Z.element(rng.randint(-50, 50)) for v in tree.vertices})]
            counts = self.counting(monkeypatch)
            for q in tuples:
                assert not tree_membership(tree, q).ok
            gcds[n] = counts["gcd"]
        assert gcds[16] == gcds[64] > 0

    def test_tree_membership_builds_no_spanning_tree(self, monkeypatch):
        # each source's BFS parents come from the one BFS, not from a
        # root-checked, edge-keyed skeleton per source
        tree, p = self.seeded_tree(random.Random(84), 16)
        calls = []
        monkeypatch.setattr(construct, "spanning_tree",
                            lambda *args: calls.append(args) or spanning_tree(*args))
        report = tree_membership(tree, p)
        assert calls == []
        report.witnesses
        assert calls == []

    def test_tree_membership_decides_without_bfs(self, monkeypatch):
        # the levels need no rooted tree: a failing spline is decided with
        # no BFS, at n = 16 and n = 32, since the tree check reads the
        # connectivity that building the tree family decided; the first
        # read of witnesses takes one
        for n in (16, 32):
            rng = random.Random(89)
            tree, _ = self.seeded_tree(rng, n)
            p = self.valid_spline(tree, rng)
            bumped = rng.choice(tree.vertices)
            q = Spline(tree, {**p.values, bumped: p[bumped] + Z.one})
            walks = []
            for module in (construct, graphs):
                monkeypatch.setattr(module, "_bfs", lambda *args, name=module.__name__:
                                    walks.append(name) or _bfs(*args))
            report = tree_membership(tree, q)
            assert not report.ok
            assert walks == []
            report.witnesses
            assert walks == ["gensplines.construct"]

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_tree_membership_one_multiplication_per_summand(self, monkeypatch, n):
        # each grown path's terms cost one product per edge, and each
        # witness summand one more: 2W in all on a path
        rng = random.Random(83)
        tree = path_z([rng.randint(2, 30) for _ in range(n - 1)])
        p = trivial_spline(tree, Z.element(7))
        counts = self.counting(monkeypatch)
        report = tree_membership(tree, p)
        summands = sum(len(w) for w in report.witnesses.values())
        assert report.ok and summands == (n + 1) * n * (n - 1) // 6
        assert counts["mul"] == 2 * summands


class TestNontrivialExistence:
    def test_positive_on_triangle(self):
        g = triangle_z()
        flag, witness = is_nontrivial_exists(g)
        assert flag
        assert verify(g, witness).ok and is_nontrivial(witness)

    def test_negative_when_zero_edges_connect(self):
        g = make_graph(Z, ["a", "b", "c"],
                       [("a", "b", 0), ("b", "c", 0), ("a", "c", 5)])
        assert is_nontrivial_exists(g) == (False, None)

    def test_witness_respects_zero_component(self):
        g = make_graph(Z, ["a", "b", "c", "d"],
                       [("a", "b", 0), ("b", "c", 3), ("c", "d", 0)])
        flag, witness = is_nontrivial_exists(g)
        assert flag
        assert witness["a"] == witness["b"] == Z.element(3)
        assert witness["c"].is_zero and witness["d"].is_zero

    def test_single_vertex(self):
        g = make_graph(Z, ["a"], [])
        assert is_nontrivial_exists(g) == (False, None)

    def test_needs_domain(self):
        R = integers_mod(6)
        g = make_graph(R, ["a", "b"], [("a", "b", 2)])
        with pytest.raises(UnsupportedRingError):
            is_nontrivial_exists(g)

"""The incidence system: build, solve-check, tree reduction, syzygies,
and the path suffix-sum form."""
import pytest

from gensplines import build_graph, gkm, graphs, integers, poly_rational, spanning_tree
from gensplines.gkm import (
    _check_last_column,
    build_gkm_matrix,
    path_reduced_form,
    reduce_via_tree,
    solves,
    syzygy_check,
)
from gensplines.graphs import GraphError, fundamental_cycles, path_order, tree_from_edges
from gensplines.rings import RingMismatchError, integers_mod
from gensplines.splines import Spline

from conftest import (make_graph, path_z, random_connected_graph, random_generator_element,
                      random_path, seeded, triangle_z)

Z = integers()


def zspline(graph, *ints):
    return Spline(graph, {v: Z.element(x)
                          for v, x in zip(graph.vertices, ints)})


class TestBuild:
    def test_p3_rows(self):
        g = path_z([2, 3])
        m = build_gkm_matrix(g)
        assert m.rows == (("v1", "v2"), ("v2", "v3"))
        assert m.terms_by_edge() == {("v1", "v2"): {0: 1, 1: -1}, ("v2", "v3"): {1: 1, 2: -1}}

    def test_orientation_override_negates_row(self):
        g = path_z([2, 3])
        m = build_gkm_matrix(g, orientation={("v1", "v2"): ("v2", "v1")})
        assert list(m.terms_by_edge().items())[0] == (("v1", "v2"), {0: -1, 1: 1})

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_rows_write_out_the_terms(self, seed):
        rng = seeded(seed)
        g = random_connected_graph(Z, rng, n_max=7, e_max=12)
        m = build_gkm_matrix(g, orientation=random_flips(g, rng))
        terms = m.terms_by_edge()
        assert list(terms) == list(g.edges)
        n = len(g.vertices)
        for tail, head in m.rows:
            edge = g.edge_key(tail, head)
            assert terms[edge] == {g.index(tail): 1, g.index(head): -1}
            row = gkm.SystemRow(edge, terms[edge], ((1, edge),)).dense(n)
            assert len(row) == n
            assert {k: c for k, c in enumerate(row) if c} == terms[edge]

    def test_orientation_keyed_by_the_reversed_edge(self):
        g = path_z([2, 3])
        m = build_gkm_matrix(g, orientation={("v2", "v1"): ("v2", "v1")})
        assert m.terms_by_edge()[("v1", "v2")] == {0: -1, 1: 1}

    def test_orientation_key_must_be_an_edge(self):
        with pytest.raises(GraphError, match="no edge"):
            build_gkm_matrix(path_z([2, 3]), orientation={("v1", "v3"): ("v1", "v3")})

    def test_orientation_must_use_endpoints(self):
        g = path_z([2, 3])
        with pytest.raises(GraphError):
            build_gkm_matrix(g, orientation={("v1", "v2"): ("v1", "v3")})

    @pytest.mark.parametrize("ends", [("a", "b", "c"), 5, "ab", ("a", "a"), ["b"]],
                             ids=["3-tuple", "int", "str", "loop", "1-list"])
    def test_orientation_that_is_not_a_pair_of_endpoints(self, ends):
        g = make_graph(Z, ["a", "b", "c"], [("a", "b", 2), ("b", "c", 3)])
        with pytest.raises(GraphError, match="must use its endpoints"):
            build_gkm_matrix(g, orientation={("a", "b"): ends})

    def test_orientation_as_a_list(self):
        m = build_gkm_matrix(path_z([2, 3]), orientation={("v1", "v2"): ["v2", "v1"]})
        assert m.rows == (("v2", "v1"), ("v2", "v3"))

    @pytest.mark.parametrize("keys", [[("v1", "v2"), ("v2", "v1")],
                                      [("v2", "v1"), ("v1", "v2")]], ids=["12-21", "21-12"])
    def test_orientation_naming_an_edge_twice_raises(self, keys):
        g = path_z([2, 3])
        with pytest.raises(GraphError, match="'v1'-'v2' is named twice"):
            build_gkm_matrix(g, orientation=dict(zip(keys, [("v1", "v2"), ("v2", "v1")])))


class TestSolves:
    def test_accepts_matching_q(self):
        g = triangle_z()
        m = build_gkm_matrix(g)
        p = zspline(g, 0, 10, 25)
        q = {("v1", "v2"): Z.element(-10),
             ("v2", "v3"): Z.element(-15),
             ("v1", "v3"): Z.element(-25)}
        assert solves(m, p, q)

    def test_rejects_wrong_q(self):
        g = triangle_z()
        m = build_gkm_matrix(g)
        p = zspline(g, 0, 10, 25)
        q = {("v1", "v2"): Z.element(10),
             ("v2", "v3"): Z.element(-15),
             ("v1", "v3"): Z.element(-25)}
        assert not solves(m, p, q)

    def test_q_outside_ideal_raises(self):
        g = triangle_z()
        m = build_gkm_matrix(g)
        p = zspline(g, 0, 0, 0)
        q = {("v1", "v2"): Z.element(1),
             ("v2", "v3"): Z.element(0),
             ("v1", "v3"): Z.element(0)}
        with pytest.raises(ValueError, match="outside the ideal"):
            solves(m, p, q)
        with pytest.raises(ValueError, match="missing q"):
            solves(m, p, {})

    @pytest.mark.parametrize("q12, verdict", [(-10, True), (10, False)])
    def test_a_key_names_its_edge_either_way_round(self, q12, verdict):
        # the key only names the edge: q stays p_tail - p_head of the row
        g = triangle_z()
        m = build_gkm_matrix(g)
        p = zspline(g, 0, 10, 25)
        rest = {("v3", "v2"): Z.element(-15), ("v1", "v3"): Z.element(-25)}
        for key in (("v1", "v2"), ("v2", "v1")):
            assert solves(m, p, {key: Z.element(q12), **rest}) is verdict

    @pytest.mark.parametrize("keys", [[("v1", "v2"), ("v2", "v1")],
                                      [("v2", "v1"), ("v1", "v2")]], ids=["12-21", "21-12"])
    def test_naming_an_edge_twice_raises(self, keys):
        # one of the two values solves and the other does not, whichever
        # key comes first
        g = triangle_z()
        p = zspline(g, 0, 10, 25)
        q = {**dict(zip(keys, [Z.element(-10), Z.element(10)])),
             ("v2", "v3"): Z.element(-15), ("v1", "v3"): Z.element(-25)}
        with pytest.raises(GraphError, match="'v1'-'v2' is named twice"):
            solves(build_gkm_matrix(g), p, q)

    def test_non_edge_key_raises(self):
        g = path_z([2, 3])
        q = {e: Z.zero for e in g.edges}
        with pytest.raises(GraphError, match="no edge"):
            solves(build_gkm_matrix(g), zspline(g, 0, 0, 0), {**q, ("v1", "v3"): Z.zero})
        with pytest.raises(GraphError, match="is not a vertex"):
            solves(build_gkm_matrix(g), zspline(g, 0, 0, 0), {**q, ("v1", "zz"): Z.zero})

    @pytest.mark.parametrize("q, verdict", [(4, True), (2, False)])
    def test_compares_mod_m_when_the_tail_is_below_the_head(self, q, verdict):
        # p_tail - p_head = 1 - 3 = -2, the residue 4 mod 6
        R = integers_mod(6)
        g = make_graph(R, ["a", "b"], [("a", "b", 2)])
        p = Spline(g, {"a": R.element(1), "b": R.element(3)})
        assert solves(build_gkm_matrix(g), p, {("a", "b"): R.element(q)}) is verdict

    def test_refuses_a_spline_over_another_ring(self):
        g = triangle_z()
        R = integers_mod(6)
        p = Spline(build_graph(R, g.vertices, []), {v: R.zero for v in g.vertices})
        q = {e: Z.zero for e in g.edges}
        with pytest.raises(RingMismatchError):
            solves(build_gkm_matrix(g), p, q)

    def test_refuses_a_spline_on_another_vertex_set(self):
        g = triangle_z()
        p = zspline(build_graph(Z, ["a", "b", "c"], []), 0, 0, 0)
        q = {e: Z.zero for e in g.edges}
        with pytest.raises(GraphError, match="not defined on this graph's vertices"):
            solves(build_gkm_matrix(g), p, q)


class TestReduceViaTree:
    def test_triangle_cycle_row(self):
        g = triangle_z()
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        assert [r.edge for r in system.tree_rows] == [("v1", "v2"), ("v1", "v3")]
        (row,) = system.cycle_rows
        assert row.edge == ("v2", "v3")
        assert row.coeffs == {}
        assert row.dense(3) == (0, 0, 0)
        assert dict(((e, s) for s, e in row.rhs)) == {
            ("v2", "v3"): 1, ("v1", "v3"): -1, ("v1", "v2"): 1,
        }

    def test_tree_rows_untouched(self):
        g = triangle_z()
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        for row in system.tree_rows:
            assert sum(abs(c) for c in row.dense(3)) == 2
            assert sorted(row.coeffs.values()) == [-1, 1]
            assert row.rhs == ((1, row.edge),)
        assert system.transform_log[0][0] == "reorder"
        assert any(op[0] == "add" for op in system.transform_log)

    def test_k4_star_tree_reproduces_cycle_conditions(self, k4_graph):
        star = tree_from_edges(
            k4_graph, [("v1", "v4"), ("v2", "v4"), ("v3", "v4")], root="v4")
        system = reduce_via_tree(build_gkm_matrix(k4_graph), star)
        assert all(row.coeffs == {} for row in system.cycle_rows)
        assert all(row.dense(4) == (0, 0, 0, 0) for row in system.cycle_rows)
        got = {row.edge: {(s, e) for s, e in row.rhs}
               for row in system.cycle_rows}
        assert got == {
            ("v1", "v2"): {(1, ("v1", "v2")), (-1, ("v1", "v4")), (1, ("v2", "v4"))},
            ("v1", "v3"): {(1, ("v1", "v3")), (-1, ("v1", "v4")), (1, ("v3", "v4"))},
            ("v2", "v3"): {(1, ("v2", "v3")), (-1, ("v2", "v4")), (1, ("v3", "v4"))},
        }

    def test_nonspanning_tree_rejected(self, k4_graph):
        other = triangle_z()
        with pytest.raises(GraphError):
            reduce_via_tree(build_gkm_matrix(k4_graph), spanning_tree(other))

    def test_tree_of_the_graph_declared_in_another_order(self):
        g = triangle_z()
        h = build_graph(Z, ["v3", "v2", "v1"], [(u, v, g.labels[u, v]) for u, v in g.edges])
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(h))
        same = reduce_via_tree(build_gkm_matrix(g), tree_from_edges(
            g, [("v2", "v3"), ("v1", "v3")], root="v3"))
        assert [r.edge for r in system.tree_rows] == [("v2", "v3"), ("v1", "v3")]
        assert set(system.tree_rows) == set(same.tree_rows)
        assert system.cycle_rows == same.cycle_rows

    def test_rhs_text(self):
        g = triangle_z()
        system = reduce_via_tree(build_gkm_matrix(g), spanning_tree(g))
        (row,) = system.cycle_rows
        assert row.rhs_text(g) == "q_{v2,v3}*(3) - q_{v1,v3}*(5) + q_{v1,v2}*(2)"


class TestSyzygy:
    def test_triangle_balanced(self):
        g = triangle_z()
        t = spanning_tree(g)
        q = {("v1", "v2"): Z.element(2),
             ("v2", "v3"): Z.element(3),
             ("v1", "v3"): Z.element(5)}
        # q_23 - q_13 + q_12 = 3 - 5 + 2 = 0
        assert syzygy_check(g, t, q)

    def test_triangle_unbalanced(self):
        g = triangle_z()
        t = spanning_tree(g)
        q = {("v1", "v2"): Z.element(2),
             ("v2", "v3"): Z.element(3),
             ("v1", "v3"): Z.element(10)}
        assert not syzygy_check(g, t, q)

    def test_q_validation(self):
        g = triangle_z()
        t = spanning_tree(g)
        with pytest.raises(ValueError):
            syzygy_check(g, t, {})

    @pytest.mark.parametrize("q13, verdict", [(5, True), (10, False)])
    def test_a_key_names_its_edge_either_way_round(self, q13, verdict):
        g = triangle_z()
        t = spanning_tree(g)
        rest = {("v2", "v1"): Z.element(2), ("v2", "v3"): Z.element(3)}
        for key in (("v1", "v3"), ("v3", "v1")):
            assert syzygy_check(g, t, {key: Z.element(q13), **rest}) is verdict

    @pytest.mark.parametrize("keys", [[("v1", "v3"), ("v3", "v1")],
                                      [("v3", "v1"), ("v1", "v3")]], ids=["13-31", "31-13"])
    def test_naming_an_edge_twice_raises(self, keys):
        g = triangle_z()
        q = {**dict(zip(keys, [Z.element(5), Z.element(10)])),
             ("v2", "v1"): Z.element(2), ("v2", "v3"): Z.element(3)}
        with pytest.raises(GraphError, match="'v1'-'v3' is named twice"):
            syzygy_check(g, spanning_tree(g), q)

    def test_non_edge_key_raises(self):
        g = triangle_z()
        q = {e: Z.zero for e in g.edges}
        with pytest.raises(GraphError, match="is not a vertex"):
            syzygy_check(g, spanning_tree(g), {**q, ("v1", "zz"): Z.zero})

    @staticmethod
    def edge_key_walk(graph, tree, q):
        """The walk syzygy_check made before it read the cycle rows: each
        step around a fundamental cycle adds q_e when it leaves e's
        earlier-declared endpoint and subtracts it otherwise."""
        _check_last_column(graph, q)
        for cycle in fundamental_cycles(graph, tree):
            total = graph.ring.zero
            for a, b in cycle.steps():
                edge = graph.edge_key(a, b)
                total = total + (q[edge] if edge == (a, b) else -q[edge])
            if not total.is_zero:
                return False
        return True

    @staticmethod
    def outcome(check, graph, tree, q):
        try:
            return check(graph, tree, q)
        except ValueError as exc:
            return type(exc), str(exc)

    @staticmethod
    def shuffled_tree(graph, rng):
        """A spanning tree grown from the edges in random order, each named
        either way round, at a random root: mostly not a BFS tree of graph."""
        edges = list(graph.edges)
        rng.shuffle(edges)
        comp = {v: v for v in graph.vertices}

        def find(v):
            while comp[v] != v:
                v = comp[v]
            return v

        keep = []
        for u, v in edges:
            if find(u) != find(v):
                comp[find(u)] = find(v)
                keep.append((v, u) if rng.random() < 0.5 else (u, v))
        return tree_from_edges(graph, keep, root=rng.choice(graph.vertices))

    @pytest.mark.parametrize("ring", [Z, integers_mod(12), poly_rational()], ids=str)
    def test_matches_the_edge_key_walk(self, ring):
        rng = seeded(83)
        verdicts = set()
        for _ in range(40):
            g = random_connected_graph(ring, rng, n_max=6)
            tree = spanning_tree(g, root=rng.choice(g.vertices))
            if rng.random() < 0.1:  # a tree of another graph, rarely spanning g
                other = random_connected_graph(ring, rng, n_max=6)
                tree = spanning_tree(other)
            gens = {e: g.labels[e].canonical for e in g.edges}
            scale = ring.one
            for gen in gens.values():
                scale = scale * gen
            # differences of a spline: every cycle sum vanishes
            p = {v: scale * random_generator_element(ring, rng) for v in g.vertices}
            balanced = {(u, v): p[u] - p[v] for u, v in g.edges}
            arbitrary = {e: gen * random_generator_element(ring, rng)
                         for e, gen in gens.items()}
            e = rng.choice(g.edges)
            perturbed, missing, outside = dict(balanced), dict(balanced), dict(balanced)
            perturbed[e] += gens[e] * random_generator_element(ring, rng, nonzero=True)
            del missing[e]
            outside[e] += ring.one
            for t in (tree, self.shuffled_tree(g, rng)):
                for q in (balanced, perturbed, arbitrary, missing, outside):
                    got = self.outcome(syzygy_check, g, t, q)
                    assert got == self.outcome(self.edge_key_walk, g, t, q)
                    verdicts.add(got if isinstance(got, bool) else got[0])
        assert verdicts == {True, False, ValueError, GraphError}

    def test_solves_the_tree_rows_without_reducing(self, monkeypatch):
        # p comes from the tree rows and each chord row is tested once:
        # no matrix, no reduction, no fundamental cycle is built
        calls = []
        for module, name in [(gkm, "build_gkm_matrix"), (gkm, "reduce_via_tree"),
                             (gkm, "fundamental_cycles"), (graphs, "fundamental_cycles")]:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
        rng = seeded(84)
        verdicts = set()
        for _ in range(20):
            g = random_connected_graph(Z, rng, n_max=6)
            p = {v: random_generator_element(Z, rng) for v in g.vertices}
            q = {(u, v): (p[u] - p[v]) * g.labels[(u, v)].canonical for u, v in g.edges}
            verdicts.add(syzygy_check(g, self.shuffled_tree(g, rng), q))
        assert verdicts == {True, False}
        assert calls == []


class TestPathReducedForm:
    def test_p3_suffix_sums(self):
        g = path_z([2, 3])
        system = path_reduced_form(build_gkm_matrix(g))
        rows = system.tree_rows
        assert len(rows) == 2
        assert rows[0].dense(3) == (1, 0, -1)
        assert rows[0].rhs == ((1, ("v2", "v3")), (1, ("v1", "v2")))
        assert rows[1].dense(3) == (0, 1, -1)
        assert rows[1].rhs == ((1, ("v2", "v3")),)

    def test_p5_pattern(self):
        g = path_z([2, 3, 4, 5])
        system = path_reduced_form(build_gkm_matrix(g))
        n = 5
        for i, row in enumerate(system.tree_rows):
            coeffs = [0] * n
            coeffs[i], coeffs[-1] = 1, -1
            assert row.dense(n) == tuple(coeffs)
            assert row.coeffs == {i: 1, n - 1: -1}
            expect = [(1, (f"v{k + 1}", f"v{k + 2}"))
                      for k in range(n - 2, i - 1, -1)]
            assert list(row.rhs) == expect

    def test_rejects_non_path(self):
        g = triangle_z()
        with pytest.raises(GraphError, match="not a path"):
            path_reduced_form(build_gkm_matrix(g))


# -- reference: each step's sign read off an explicit orientation map --

def reference_unit_row(graph, orient, edge):
    tail, head = orient[edge]
    out = [0] * len(graph.vertices)
    out[graph.index(tail)] = 1
    out[graph.index(head)] = -1
    return out


def reference_reduce_via_tree(matrix, tree):
    graph = matrix.graph
    orient = {graph.edge_key(t, h): (t, h) for t, h in matrix.rows}
    log = [("reorder", tuple(tree.tree_edges))]
    tree_rows = [(e, tuple(reference_unit_row(graph, orient, e)), ((1, e),))
                 for e in tree.tree_edges]
    cycle_rows = []
    for cycle in fundamental_cycles(graph, tree):
        chord = cycle.chord
        steps = cycle.steps()
        chord_step_sign = 1 if orient[chord] == steps[0] else -1
        coeffs = reference_unit_row(graph, orient, chord)
        rhs = [(1, chord)]
        for a, b in steps[1:]:
            edge = graph.edge_key(a, b)
            c = chord_step_sign * (1 if orient[edge] == (a, b) else -1)
            row = reference_unit_row(graph, orient, edge)
            coeffs = [x + c * y for x, y in zip(coeffs, row)]
            rhs.append((c, edge))
            log.append(("add", c, edge, chord))
        cycle_rows.append((chord, tuple(coeffs), tuple(rhs)))
    return tree_rows, cycle_rows, log


def reference_path_rows(matrix):
    graph = matrix.graph
    order = path_order(graph)
    n = len(order)
    orient = {graph.edge_key(t, h): (t, h) for t, h in matrix.rows}
    rows = []
    for i in range(n - 1):
        coeffs = [0] * n
        coeffs[graph.index(order[i])] = 1
        coeffs[graph.index(order[-1])] = -1
        rhs = []
        for k in range(n - 2, i - 1, -1):
            edge = graph.edge_key(order[k], order[k + 1])
            sign = 1 if orient[edge] == (order[k], order[k + 1]) else -1
            rhs.append((sign, edge))
        rows.append((graph.edge_key(order[i], order[i + 1]), tuple(coeffs), tuple(rhs)))
    return rows


def random_flips(graph, rng):
    return {(u, v): (v, u) for u, v in graph.edges if rng.random() < 0.5}


def as_tuples(rows, n):
    """Each row with its coeffs written out over n vertex slots."""
    return [(r.edge, r.dense(n), r.rhs) for r in rows]


class TestReorientedMatrices:
    @pytest.mark.parametrize("seed", range(40))
    def test_reduce_via_tree_matches_reference(self, seed):
        rng = seeded(seed)
        g = random_connected_graph(Z, rng, n_max=7, e_max=12, nonzero=True)
        matrix = build_gkm_matrix(g, orientation=random_flips(g, rng))
        tree = spanning_tree(g, rng.choice(g.vertices))
        system = reduce_via_tree(matrix, tree)
        tree_rows, cycle_rows, log = reference_reduce_via_tree(matrix, tree)
        n = len(g.vertices)
        assert as_tuples(system.tree_rows, n) == tree_rows
        assert as_tuples(system.cycle_rows, n) == cycle_rows
        assert list(system.transform_log) == log

    @pytest.mark.parametrize("seed", range(20))
    def test_path_reduced_form_matches_reference(self, seed):
        rng = seeded(seed)
        g = random_path(Z, rng, n_max=8, nonzero=True)
        matrix = build_gkm_matrix(g, orientation=random_flips(g, rng))
        system = path_reduced_form(matrix)
        rows = reference_path_rows(matrix)
        assert as_tuples(system.tree_rows, len(g.vertices)) == rows
        assert system.cycle_rows == ()
        assert list(system.transform_log) == [("add-suffix", r[0]) for r in rows]


# -- reference: the reduction on dense rows and the check on RingElements --

def dense_reduce_via_tree(matrix, tree):
    """The tree reduction as it ran on dense rows: every row written out
    over all vertex slots, a chord row copied and summed slot by slot,
    each step's sign read off its dense row."""
    graph = matrix.graph
    cycles = fundamental_cycles(graph, tree)
    rows = {}
    for edge, terms in matrix.terms_by_edge().items():
        row = [0] * len(graph.vertices)
        for k, c in terms.items():
            row[k] = c
        rows[edge] = tuple(row)
    tree_edges = tuple(graph.edge_key(u, v) for u, v in tree.tree_edges)
    log = [("reorder", tree_edges)]
    tree_rows = [(e, rows[e], ((1, e),)) for e in tree_edges]
    cycle_rows = []
    for cycle in cycles:
        chord = cycle.chord
        steps = cycle.steps()
        chord_step_sign = rows[chord][graph.index(steps[0][0])]
        coeffs = list(rows[chord])
        rhs = [(1, chord)]
        for a, b in steps[1:]:
            edge = graph.edge_key(a, b)
            row = rows[edge]
            c = chord_step_sign * row[graph.index(a)]
            coeffs = [x + c * y for x, y in zip(coeffs, row)]
            rhs.append((c, edge))
            log.append(("add", c, edge, chord))
        cycle_rows.append((chord, tuple(coeffs), tuple(rhs)))
    return tree_rows, cycle_rows, log


def element_syzygy_check(graph, tree, q):
    """The syzygy check on RingElements: p fixed along the tree's parents
    with ring subtractions, then every chord row compared as elements."""
    q = _check_last_column(graph, q)
    if set(tree.depth) != set(graph.vertices):
        raise GraphError("tree does not span the graph")
    p = {tree.root: graph.ring.zero}
    tree_set = set()
    for child, up in tree.parent.items():
        edge = graph.edge_key(up, child)
        tree_set.add(edge)
        p[child] = p[up] - q[edge] if edge[0] == up else p[up] + q[edge]
    return all(p[tail] - p[head] == q[(tail, head)]
               for tail, head in graph.edges if (tail, head) not in tree_set)


def redeclared(graph, rng):
    """graph with its vertices declared in a shuffled order, so that some
    edge keys name their edge the other way round."""
    order = list(graph.vertices)
    rng.shuffle(order)
    return build_graph(graph.ring, order, [(u, v, graph.labels[u, v]) for u, v in graph.edges])


class TestAgainstTheDenseReduction:
    @pytest.mark.parametrize("seed", range(40))
    def test_rows_and_log_match(self, seed):
        rng = seeded(3500 + seed)
        g = random_connected_graph(Z, rng, n_max=9, e_max=16, nonzero=True)
        if rng.random() < 0.5:
            g = redeclared(g, rng)
        flips = random_flips(g, rng) if rng.random() < 0.7 else None
        matrix = build_gkm_matrix(g, orientation=flips)
        # a tree of g, or of g declared in another order, at a random root
        host = redeclared(g, rng) if rng.random() < 0.5 else g
        tree = spanning_tree(host, rng.choice(g.vertices))
        system = reduce_via_tree(matrix, tree)
        tree_rows, cycle_rows, log = dense_reduce_via_tree(matrix, tree)
        n = len(g.vertices)
        assert as_tuples(system.tree_rows, n) == tree_rows
        assert as_tuples(system.cycle_rows, n) == cycle_rows
        assert list(system.transform_log) == log
        assert all(r.coeffs == {} for r in system.cycle_rows)


class TestAgainstTheElementSyzygy:
    @staticmethod
    def instance(ring, rng):
        """A connected graph and a spline on it.  Over Z/60 the labels
        divide 12 and the values are multiples of 12, so the residue
        differences reach past m / 2 and the tree's path sums past m."""
        if not ring.modulus:
            g = random_connected_graph(ring, rng, n_max=7, e_max=12)
            scale = ring.one
            for e in g.edges:
                scale = scale * g.labels[e].canonical
            return g, {v: scale * random_generator_element(ring, rng) for v in g.vertices}
        n = rng.randint(2, 8)
        pairs = {(rng.randrange(i), i) for i in range(1, n)}
        pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 4))}
        g = make_graph(ring, [f"v{i}" for i in range(n)],
                       [(f"v{i}", f"v{j}", rng.choice([2, 3, 4, 6, 12])) for i, j in sorted(pairs)])
        return g, {v: ring.element(12 * rng.randrange(5)) for v in g.vertices}

    @pytest.mark.parametrize("ring", [Z, poly_rational(), integers_mod(60)], ids=str)
    def test_verdicts_match(self, ring):
        rng = seeded(3600)
        verdicts = set()
        for _ in range(60):
            g, p = self.instance(ring, rng)
            balanced = {(u, v): p[u] - p[v] for u, v in g.edges}
            perturbed = dict(balanced)
            e = rng.choice(g.edges)
            perturbed[e] = perturbed[e] + g.labels[e].canonical * random_generator_element(
                ring, rng, nonzero=True)
            for tree in (spanning_tree(g, rng.choice(g.vertices)),
                         spanning_tree(redeclared(g, rng))):
                for q in (balanced, perturbed):
                    got = syzygy_check(g, tree, q)
                    assert got == element_syzygy_check(g, tree, q)
                    verdicts.add(got)
        assert verdicts == {True, False}

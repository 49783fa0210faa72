"""Edge-labeled graphs and their combinatorial infrastructure.

Vertex declaration order is semantic throughout: it fixes the BFS
spanning tree, the flow-up vertex order, matrix column order, and the
default edge orientation (earlier vertex -> later vertex).
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import count

from .rings import Ideal, Record, RingMismatchError, RingSpec


class GraphError(ValueError):
    """Raised on malformed graph input."""


class DisconnectedGraphError(GraphError):
    def __init__(self, components):
        self.components = components
        parts = "; ".join("{" + ", ".join(map(str, c)) + "}" for c in components)
        super().__init__(f"graph is disconnected: components {parts}")


def _bfs(adj, root):
    """BFS from root in adjacency-list order: (depth, parent), both keyed
    in visiting order, so parent's items are the tree steps (w, v)."""
    depth = {root: 0}
    parent = {}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                parent[w] = v
                queue.append(w)
    return depth, parent


class EdgeLabeledGraph(Record):
    """A finite simple graph with an ideal attached to every edge."""

    # __dict__ holds is_connected, decided once: the graph is immutable
    __slots__ = ("ring", "vertices", "edges", "labels", "_index", "_adj", "__dict__")

    def __init__(self, ring: RingSpec, vertices, labeled_edges):
        vertices = tuple(vertices)
        index = {}
        for v in vertices:
            if v in index:
                raise GraphError(f"duplicate vertex id {v!r}")
            index[v] = len(index)
        edges = []
        labels = {}
        for u, v, ideal in labeled_edges:
            if u not in index or v not in index:
                missing = u if u not in index else v
                raise GraphError(f"edge endpoint {missing!r} is not a declared vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if index[u] > index[v]:
                u, v = v, u
            if (u, v) in labels:
                raise GraphError(f"duplicate edge {u!r}-{v!r}")
            if not isinstance(ideal, Ideal):
                ideal = Ideal(ideal)
            if ideal.ring is not ring and ideal.ring != ring:
                raise RingMismatchError(
                    f"edge {u!r}-{v!r} labeled over {ideal.ring}, graph over {ring}"
                )
            edges.append((u, v))
            labels[(u, v)] = ideal
        adj = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort(key=index.__getitem__)
        self._set(ring, vertices, tuple(edges), labels, index, adj)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"{v!r} is not a vertex") from None

    def edge_key(self, u, v) -> tuple:
        try:
            if self._index[u] > self._index[v]:
                u, v = v, u
        except KeyError:
            self.index(u)
            self.index(v)
        if (u, v) not in self.labels:
            raise GraphError(f"no edge {u!r}-{v!r}")
        return (u, v)

    def label(self, u, v) -> Ideal:
        return self.labels[self.edge_key(u, v)]

    def neighbors(self, v):
        self.index(v)
        return tuple(self._adj[v])

    def components(self) -> list[list]:
        seen = set()
        out = []
        for start in self.vertices:
            if start not in seen:
                comp = list(_bfs(self._adj, start)[0])
                seen.update(comp)
                out.append(comp)
        return out

    @cached_property
    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1 and self.is_connected

    def is_subgraph_of(self, other: "EdgeLabeledGraph") -> bool:
        if self.ring != other.ring:
            return False
        if any(v not in other._index for v in self.vertices):
            return False
        for e in self.edges:
            try:
                if other.label(*e) != self.labels[e]:
                    return False
            except GraphError:
                return False
        return True


def build_graph(ring: RingSpec, vertices, edges_with_generators) -> EdgeLabeledGraph:
    """Build a graph, canonicalizing each edge's generator list to an Ideal."""
    return EdgeLabeledGraph(ring, vertices, edges_with_generators)


class TreeSkeleton(Record):
    """A rooted spanning tree of a host graph."""

    __slots__ = ("host", "root", "parent", "tree_edges", "depth")


def _skeleton(graph: EdgeLabeledGraph, adj, root) -> TreeSkeleton | None:
    """BFS tree of a spanning subgraph's adj from root; None if it misses a vertex."""
    if root is None:
        root = graph.vertices[0]
    elif root not in graph._index:
        raise GraphError(f"root {root!r} is not a vertex")
    depth, parent = _bfs(adj, root)
    if len(depth) != len(graph.vertices):
        return None
    tree_edges = tuple(graph.edge_key(v, w) for w, v in parent.items())
    return TreeSkeleton(graph, root, parent, tree_edges, depth)


def spanning_tree(graph: EdgeLabeledGraph, root=None) -> TreeSkeleton:
    """Breadth-first spanning tree, rooted at the first declared vertex.

    Neighbor visiting order follows vertex declaration order, so the
    tree is deterministic given the input.
    """
    if not graph.vertices:
        raise GraphError("empty graph has no spanning tree")
    tree = _skeleton(graph, graph._adj, root)
    if tree is None:
        raise DisconnectedGraphError(graph.components())
    return tree


def tree_from_edges(graph: EdgeLabeledGraph, edges, root=None) -> TreeSkeleton:
    """Build a TreeSkeleton from an explicit spanning-edge set (repeats count once)."""
    edges = {graph.edge_key(u, v) for u, v in edges}
    tree = _skeleton(graph, spanning_subgraph(graph, edges)._adj, root)
    if tree is None:
        raise GraphError("edge set does not span the graph")
    if len(edges) != len(graph.vertices) - 1:
        raise GraphError("edge set has the wrong size for a spanning tree")
    return tree


def tree_path(tree: TreeSkeleton, u, v) -> list:
    """The unique u -> v path in the tree; tree_path(u, u) = [u]."""
    for x in (u, v):
        if x not in tree.depth:
            raise GraphError(f"vertex {x!r} is not in the tree")
    up_u, up_v = [u], [v]
    a, b = u, v
    while tree.depth[a] > tree.depth[b]:
        a = tree.parent[a]
        up_u.append(a)
    while tree.depth[b] > tree.depth[a]:
        b = tree.parent[b]
        up_v.append(b)
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
        up_u.append(a)
        up_v.append(b)
    return up_u + up_v[-2::-1]


def path_order(graph: EdgeLabeledGraph) -> list:
    """The vertices of a path graph from end to end, starting at the
    end declared first; raises GraphError if the graph is not a path.
    A tree is a path exactly when at most two vertices have degree <= 1."""
    ends = [v for v in graph.vertices if len(graph._adj[v]) <= 1]
    if not graph.is_tree or len(ends) > 2:
        raise GraphError("graph is not a path")
    return list(_bfs(graph._adj, ends[0])[0])


def path_edges(graph: EdgeLabeledGraph, walk) -> list:
    """The edge keys crossed by consecutive vertices of walk, in order."""
    return [graph.edge_key(a, b) for a, b in zip(walk, walk[1:])]


class CycleDescriptor(Record):
    """The fundamental cycle of a chord: chord first, then tree edges.

    vertex_sequence starts at the chord's tail, crosses the chord, and
    walks back to the tail through the tree.
    """

    __slots__ = ("chord", "vertex_sequence")

    def steps(self):
        """Consecutive (a, b) traversal steps around the cycle."""
        seq = self.vertex_sequence
        return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


def keyed_by_edge(graph: EdgeLabeledGraph, named) -> dict:
    """A caller's {(u, v): value} re-keyed through edge_key, so a key may
    name its edge either way round; GraphError for a pair that is not an
    edge, or for two keys that name one edge."""
    out = {}
    for key, value in (named or {}).items():
        edge = graph.edge_key(*key)
        if edge in out:
            raise GraphError(f"edge {edge[0]!r}-{edge[1]!r} is named twice")
        out[edge] = value
    return out


def tree_edge_keys(graph: EdgeLabeledGraph, tree: TreeSkeleton) -> tuple:
    """The tree's edges named by graph's keys, in tree order; a tree of a
    graph declared in another vertex order names them the other way
    round.  GraphError for a tree edge graph lacks."""
    return tuple(graph.edge_key(u, v) for u, v in tree.tree_edges)


def fundamental_cycles(graph: EdgeLabeledGraph, tree: TreeSkeleton) -> list[CycleDescriptor]:
    """One cycle per chord; GraphError if tree does not span graph."""
    if set(tree.depth) != set(graph.vertices):
        raise GraphError("tree does not span the graph")
    tree_set = set(tree_edge_keys(graph, tree))
    out = []
    for e in graph.edges:
        if e in tree_set:
            continue
        u, v = e
        seq = (u,) + tuple(tree_path(tree, v, u))
        out.append(CycleDescriptor(e, seq))
    return out


def restrict(graph: EdgeLabeledGraph, vertex_subset, edge_subset) -> EdgeLabeledGraph:
    """Subgraph on the given vertices and edges, labels restricted."""
    wanted = set(vertex_subset)
    keep = [v for v in graph.vertices if v in wanted]
    if len(keep) != len(wanted):
        missing = wanted - set(graph.vertices)
        raise GraphError(f"unknown vertices {sorted(map(str, missing))}")
    labeled = []
    for u, v in edge_subset:
        key = graph.edge_key(u, v)
        if key[0] not in wanted or key[1] not in wanted:
            raise GraphError(f"edge {key} has an endpoint outside the vertex subset")
        labeled.append((key[0], key[1], graph.labels[key]))
    return EdgeLabeledGraph(graph.ring, keep, labeled)


def induced_subgraph(graph: EdgeLabeledGraph, vertex_subset) -> EdgeLabeledGraph:
    keep = set(vertex_subset)
    edges = [e for e in graph.edges if e[0] in keep and e[1] in keep]
    return restrict(graph, vertex_subset, edges)


def spanning_subgraph(graph: EdgeLabeledGraph, edge_subset) -> EdgeLabeledGraph:
    """Subgraph keeping every vertex and the given edges."""
    return restrict(graph, graph.vertices, edge_subset)


def erase_unit_edges(graph: EdgeLabeledGraph) -> EdgeLabeledGraph:
    keep = [e for e in graph.edges if not graph.labels[e].is_unit]
    return restrict(graph, graph.vertices, keep)


def disjoint_union(g1: EdgeLabeledGraph, g2: EdgeLabeledGraph) -> EdgeLabeledGraph:
    """Disjoint union; colliding vertex ids get component prefixes, "0:"
    and "1:", repeated until no renamed id meets another id."""
    if g1.ring != g2.ring:
        raise RingMismatchError(f"{g1.ring} vs {g2.ring}")
    collide = set(g1.vertices) & set(g2.vertices)
    for k in count(1):
        ren1 = {v: (f"{'0:' * k}{v}" if v in collide else v) for v in g1.vertices}
        ren2 = {v: (f"{'1:' * k}{v}" if v in collide else v) for v in g2.vertices}
        vertices = [ren1[v] for v in g1.vertices] + [ren2[v] for v in g2.vertices]
        if len(set(vertices)) == len(vertices):
            break
    labeled = [(ren1[u], ren1[v], g1.labels[(u, v)]) for u, v in g1.edges]
    labeled += [(ren2[u], ren2[v], g2.labels[(u, v)]) for u, v in g2.edges]
    return EdgeLabeledGraph(g1.ring, vertices, labeled)

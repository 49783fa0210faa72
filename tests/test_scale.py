"""Growth gates: how an operation's time grows with its input.

Each gate times an operation at n and 4n on seeded sparse graphs in one
process, interleaved, best of K, and asserts that the ratio stays under
4 ** (e + SLACK), e the operation's exponent in the size of its input.
A ratio within one process cancels most of the host's drift, where an
absolute time limit does not.
"""
import random
from time import perf_counter

from gensplines import analysis, integers

from conftest import make_graph

SLACK = 0.5
K = 9


def sparse_z_graph(n, seed):
    """n vertices: a random tree plus n/4 chords, labels from {2, 3, 4,
    6, 9, 12}."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < n - 1 + n // 4:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return make_graph(integers(), [f"v{i}" for i in range(n)],
                      [(f"v{i}", f"v{j}", rng.choice([2, 3, 4, 6, 9, 12]))
                       for i, j in sorted(pairs)])


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

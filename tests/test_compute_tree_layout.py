"""The flat post-order layout of JKB/JKB2's special-node trees.

Each tree is two ``array('q')`` columns: the node id of every entry and
the size of its subtree, in post-order.  These tests check the layout
over random small DAGs and source sets, the ``2|S| - 1`` bound, the
answers against a BFS, and that the trees keep the garbage collector's
work proportional to the number of trees, not of tree nodes.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute_tree import ComputeTreeAlgorithm
from repro.core.query import Query, SystemConfig
from repro.graphs.digraph import Digraph
from repro.graphs.generator import generate_dag
from repro.graphs.toposort import reachable_from


@st.composite
def dag_and_sources(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    f = draw(st.integers(min_value=1, max_value=6))
    locality = draw(st.integers(min_value=1, max_value=n))
    graph = generate_dag(n, f, locality, seed=draw(st.integers(0, 100_000)))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(12, n), unique=True)
    )
    dual = draw(st.booleans())
    return graph, sources, dual


def assert_well_formed(tree, sources) -> None:
    """Every entry's subtree is a contiguous block its children tile."""
    nodes, sizes = tree.nodes, tree.sizes
    assert len(nodes) == len(sizes)
    if not nodes:
        assert tree.size == 0
        return
    assert sizes[-1] == len(nodes)  # the root is last and spans all
    for entry in range(len(nodes)):
        first = entry - sizes[entry] + 1
        assert first >= 0
        child, children = entry - 1, 0
        while child >= first:
            assert child - sizes[child] + 1 >= first  # inside the block
            child -= sizes[child]
            children += 1
        assert child == first - 1  # the children tile the block exactly
        if nodes[entry] not in sources:
            # A non-source is stored only where two groups meet.
            assert children >= 2
    assert tree.size == len(set(nodes))


def tracked_objects_under(root) -> int:
    """GC-tracked objects reachable from ``root``, types not followed."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if gc.is_tracked(obj):
            count += 1
        for ref in gc.get_referents(obj):
            if isinstance(ref, type) or id(ref) in seen:
                continue
            seen.add(id(ref))
            stack.append(ref)
    return count


class TestLayoutProperties:
    @given(dag_and_sources())
    @settings(max_examples=60, deadline=None)
    def test_layout_bound_and_answer(self, case):
        graph, sources, dual = case
        algorithm = ComputeTreeAlgorithm(dual_representation=dual)
        result = algorithm.run(graph, Query.ptc(sources), SystemConfig(buffer_pages=5))
        source_set = set(sources)
        for tree in algorithm._trees.values():
            assert_well_formed(tree, source_set)
            assert tree.size <= 2 * len(sources) - 1
        for source in sources:
            expected = reachable_from(graph, [source]) - {source}
            assert set(result.successors_of(source)) == expected

    @given(dag_and_sources())
    @settings(max_examples=20, deadline=None)
    def test_gc_tracked_objects_bounded_per_tree(self, case):
        graph, sources, dual = case
        algorithm = ComputeTreeAlgorithm(dual_representation=dual)
        algorithm.run(graph, Query.ptc(sources))
        trees = algorithm._trees
        # The dict, and per tree the instance and its two columns --
        # however many nodes the trees hold.
        assert tracked_objects_under(trees) <= 1 + 3 * len(trees)

    def test_gc_tracked_objects_do_not_grow_with_tree_nodes(self):
        graph = generate_dag(400, 5, 80, seed=7)
        algorithm = ComputeTreeAlgorithm()
        algorithm.run(graph, Query.full())
        trees = algorithm._trees
        entries = sum(len(tree.nodes) for tree in trees.values())
        assert entries > 20 * len(trees)  # big trees ...
        assert tracked_objects_under(trees) <= 1 + 3 * len(trees)  # ... few objects


class TestDuplicateEntry:
    def test_source_branch_node_counted_once(self):
        """A source that is a branch node of its own tree is stored twice
        in its child's tree -- as the source wrapper and as the inner
        root -- but it is one distinct tuple."""
        # Sources {0, 1} first meet at source 2, which becomes the
        # branch root of its own tree; node 3 gets 2 over 2 over {0, 1}.
        graph = Digraph.from_arcs(4, [(0, 2), (1, 2), (2, 3)])
        algorithm = ComputeTreeAlgorithm()
        result = algorithm.run(graph, Query.ptc([0, 1, 2]))
        tree3 = algorithm._trees[3]
        assert sorted(tree3.nodes[:2]) == [0, 1]
        assert list(tree3.nodes[2:]) == [2, 2]
        assert list(tree3.sizes) == [1, 1, 3, 4]
        assert tree3.size == 3
        assert tree3.stored_entries == 3 + 2  # two internal entries
        # Trees of 2 and 3 hold three distinct ids each.
        assert result.metrics.distinct_tuples == 6
        assert result.successors_of(0) == [2, 3]
        assert result.successors_of(1) == [2, 3]
        assert result.successors_of(2) == [3]

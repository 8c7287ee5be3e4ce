"""The benchmark's own reachability yardstick.

A breadth-first search over the generated graph's arcs, independent of
every algorithm and index in the program: each closure the program
computes and each answer the server gives is compared against it.
"""

from __future__ import annotations


class ReachOracle:
    """Proper-successor bitsets by BFS from each source, memoised."""

    def __init__(self, num_nodes: int, arcs) -> None:
        children = [0] * num_nodes
        for src, dst in arcs:
            children[src] |= 1 << dst
        self.num_nodes = num_nodes
        self._children = children
        self._memo: dict[int, int] = {}

    def bits(self, src: int) -> int:
        """Bitset of the nodes reachable from ``src`` by a path of length >= 1."""
        found = self._memo.get(src)
        if found is not None:
            return found
        children = self._children
        seen = 0
        frontier = children[src]
        while frontier:
            seen |= frontier
            expanded = 0
            while frontier:
                low = frontier & -frontier
                expanded |= children[low.bit_length() - 1]
                frontier ^= low
            frontier = expanded & ~seen
        self._memo[src] = seen
        return seen

    def reachable(self, src: int, dst: int) -> bool:
        return bool((self.bits(src) >> dst) & 1)

    def successors(self, src: int) -> list[int]:
        """Sorted node ids reachable from ``src``."""
        bits = self.bits(src)
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out


def graph_oracle(graph) -> ReachOracle:
    """Oracle over a program ``Digraph``, read only through ``arcs()``."""
    return ReachOracle(graph.num_nodes, graph.arcs())

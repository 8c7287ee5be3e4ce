"""The Compute_Tree algorithm, "JKB"/"JKB2" (Section 3.6; Jakobsson [15]).

Compute_Tree is a spanning-tree algorithm tailored to partial closure.
It differs from SPN in two ways:

* trees are built over the *arc-reversed* magic graph -- predecessor
  trees rather than successor trees; and
* a predecessor tree for node ``x`` holds only the *special* nodes: the
  source nodes that reach ``x``, plus branch nodes where two groups of
  previously unrelated sources first meet.  A special-node tree has at
  most ``2|S| - 1`` nodes, so the working set is tiny and becomes
  memory-resident as soon as the buffer pool allows (Figure 13).

Nodes of the magic graph are processed in topological order.  The tree
of ``x`` merges one contribution per magic parent ``p``: the (filtered
copy of the) tree of ``p``, placed under ``p`` itself when ``p`` is a
source.  Nodes already present anywhere in ``x``'s tree are pruned;
non-source interior nodes left with fewer than two children are spliced
out, keeping the tree minimal.  If more than one root remains after all
parents are merged, paths from unrelated source groups meet for the
first time at ``x`` itself, so ``x`` becomes a new branch (special)
node -- the "nearest common ancestor" of the reversed graph.

Because the trees are *partial* (only special nodes are stored), the
marking optimisation almost never applies -- a parent is rarely itself
a special node of the child's tree -- so JKB performs many more unions
than BTC, most of which contribute nothing (Section 6.3.3, Figure 10,
Figure 11).  This poor marking utilisation is exactly what makes JKB
lose to BTC on *wide* graphs while winning on narrow ones (Table 4).

The two implementations differ only in how the restructuring phase
obtains the immediate predecessor lists:

* ``JKB2`` assumes the dual representation -- an inverse relation
  clustered and indexed on the destination attribute -- and pays about
  twice BTC's preprocessing cost;
* ``JKB`` has only the source-clustered relation, modelled as an
  unclustered access path charging one scattered relation-page access
  per predecessor arc fetched, which blows up with the out-degree
  (Figure 7(a)).
"""

from __future__ import annotations

from array import array

from repro.core.base import TwoPhaseAlgorithm
from repro.core.context import ExecutionContext
from repro.storage.engine import CAP_PAGE_COSTS, PageId, PageKind


class _SpecialTree:
    """A special-node predecessor tree for one magic-graph node.

    The tree is stored flat, in post-order: ``nodes[i]`` is the id of
    entry ``i`` and ``sizes[i]`` the number of entries in its subtree,
    so that subtree is the contiguous block ``i - sizes[i] + 1 .. i``
    and the root is the last entry.  Two ``array('q')`` columns per
    tree, instead of a Python object per node, keep the cyclic
    collector's work proportional to the number of trees rather than
    the millions of tree nodes a G9 run builds.

    An id can occur twice: a source that became a branch node of its
    own tree is contributed to its children as the source wrapper over
    that tree, whose root is the same id.  ``size`` therefore counts
    *distinct* ids (it is fixed when the tree is finished), never the
    entries.
    """

    __slots__ = ("nodes", "sizes", "size", "source_bits", "internal_count")

    def __init__(self) -> None:
        self.nodes = array("q")
        self.sizes = array("q")
        self.size = 0
        self.source_bits = 0
        # Entries with at least one child.  Counted as entries are
        # appended: a copied subtree is never restructured afterwards
        # (later merges only add sibling subtrees), so an entry's
        # internal/leaf status is fixed.
        self.internal_count = 0

    @property
    def ids(self) -> set[int]:
        """The distinct ids in the tree (derived; for inspection only)."""
        return set(self.nodes)

    @property
    def stored_entries(self) -> int:
        """On-disk entries: each node once, plus one marker per parent."""
        return self.size + self.internal_count


class ComputeTreeAlgorithm(TwoPhaseAlgorithm):
    """Jakobsson's Compute_Tree over special-node predecessor trees.

    ``dual_representation=True`` selects the JKB2 variant (inverse
    relation available); ``False`` selects plain JKB.
    """

    def __init__(self, dual_representation: bool = True) -> None:
        self.dual_representation = dual_representation
        self.name = "jkb2" if dual_representation else "jkb"
        self.needs_inverse = dual_representation

    # -- restructuring ------------------------------------------------------

    def restructure(self, ctx: ExecutionContext) -> None:
        self.identify_scope(ctx)
        self.sort_and_profile(ctx)
        self._build_predecessor_lists(ctx)

    def _build_predecessor_lists(self, ctx: ExecutionContext) -> None:
        """Materialise the immediate predecessor list of every magic node.

        The lists are fetched from the inverse relation (JKB2) or via
        scattered probes of the forward relation (JKB), converted to
        list format and written to a working file in topological order
        -- the computation phase reads each node's predecessor list
        back when it processes the node, so those pages compete with
        the tree pages for the buffer pool.
        """
        in_scope = ctx.in_scope
        predecessors: dict[int, list[int]] = {}
        pred_store = ctx.engine.make_list_store(PageKind.PREDECESSOR)
        charged = ctx.engine.supports(CAP_PAGE_COSTS)
        tuple_io = 0
        for node in ctx.topo_order:
            all_preds = ctx.graph.predecessors(node)
            if self.dual_representation:
                if all_preds:
                    ctx.engine.read_predecessors(node)
                    tuple_io += len(all_preds)
            else:
                # No inverse index: one scattered page access per
                # predecessor arc retrieved.
                if charged:
                    ctx.engine.probe_arcs_unclustered(
                        len(all_preds), seed_position=node
                    )
                tuple_io += len(all_preds)
            magic_preds = [p for p in all_preds if p in in_scope]
            predecessors[node] = magic_preds
            pred_store.create_list(node, len(magic_preds))
        ctx.metrics.fold(tuple_io=tuple_io)
        self._predecessors = predecessors
        self._pred_store = pred_store

    # -- computation ---------------------------------------------------------

    def compute(self, ctx: ExecutionContext) -> None:
        metrics = ctx.metrics
        position = ctx.position
        levels = ctx.levels
        lists = ctx.lists
        store = ctx.store
        store_read = store.read_list
        store_create = store.create_list
        pred_read = self._pred_store.read_list
        predecessors = self._predecessors
        merge = self._merge
        sources = set(ctx.query.sources or ctx.topo_order)
        trees: dict[int, _SpecialTree] = {}
        self._trees = trees
        # The per-arc counters accumulate in locals and fold into
        # ``metrics`` once at the end -- the final totals (and every
        # storage call, in the same order) are identical.
        arcs_considered = arcs_marked = locality = unions = branch_nodes = 0

        for node in ctx.topo_order:
            tree = _SpecialTree()
            # The ids in this tree; needed only while it is built.
            tree_ids: set[int] = set()
            merged_roots = 0
            preds = predecessors[node]
            if preds:
                # Bring the node's materialised predecessor list in.
                pred_read(node)
                node_level = levels[node]
                # Parents are merged latest-topological-position first:
                # a later parent's tree can contain an earlier parent
                # (the analogue of BTC's child ordering), giving the
                # marking test below its best chance -- which is still
                # poor, because only *special* parents ever appear in a
                # tree.
                parents = sorted(preds, key=position.__getitem__, reverse=True)
                for parent in parents:
                    arcs_considered += 1
                    if parent in tree_ids:
                        # The parent itself is a special node already in
                        # this tree: the only case where the marking
                        # optimisation applies to partial lists.  Because
                        # trees store *only* special nodes, this is rare
                        # -- the poor marking utilisation of Section
                        # 6.3.3.
                        arcs_marked += 1
                        continue
                    locality += levels[parent] - node_level
                    parent_tree = trees[parent]
                    # The tree a parent arc contributes: T(p), under p
                    # itself when p is a source.
                    if parent in sources:
                        wrapper = parent
                    elif parent_tree.nodes:
                        wrapper = None
                    else:
                        # The parent is a non-source with an empty tree:
                        # nothing can flow through this arc.
                        continue
                    # Perform the union even when it cannot contribute
                    # any new node (the paper's arc (j, d) example): the
                    # parent's tree must still be brought into memory.
                    unions += 1
                    if parent_tree.nodes:
                        store_read(parent)
                    if merge(parent_tree, wrapper, tree, tree_ids, sources, metrics):
                        merged_roots += 1

            if merged_roots > 1:
                # Unrelated source groups meet for the first time here:
                # the node itself becomes a branch (special) node, the
                # root over every merged block.
                tree.nodes.append(node)
                tree.sizes.append(len(tree.nodes))
                tree.internal_count += 1
                tree_ids.add(node)
                if node in sources:
                    tree.source_bits |= 1 << node
                branch_nodes += 1
            tree.size = len(tree_ids)
            trees[node] = tree
            store_create(node, tree.stored_entries)
            lists[node] = 0  # flat lists are not used by JKB

        metrics.fold(
            arcs_considered=arcs_considered,
            arcs_marked=arcs_marked,
            unmarked_locality_total=locality,
            list_unions=unions,
            list_reads=unions,
            tuples_generated=branch_nodes,
        )

    def _merge(
        self,
        parent_tree: _SpecialTree,
        wrapper: int | None,
        tree: _SpecialTree,
        tree_ids: set[int],
        sources: set[int],
        metrics,
    ) -> bool:
        """Copy one contribution into ``tree``, pruning and splicing.

        The contribution is ``parent_tree``, or a virtual root
        ``wrapper`` over it when the parent is a source.  Returns
        whether a copy (one new root block at the end of ``tree``'s
        arrays) was made; False when everything was already present.
        Only nodes that are still *special with respect to the new
        tree* survive -- sources not yet present, and interior nodes
        that still join two or more surviving groups.

        The walk scans the parent's arrays backwards, which visits the
        tree in pre-order with children right to left; a pruned subtree
        is skipped whole by stepping over its block.  The copy is
        emitted in post-order straight into ``tree``: a kept node
        appends ``(id, size)`` once its children are done, so its
        children's blocks are exactly what was appended since it was
        entered, and a spliced node with one surviving child appends
        nothing -- that child's block is already in place.  The copy
        lists siblings in the reverse of the parent's order.  No counter
        depends on that order: two entries of a tree that are not
        ancestor and descendant never share an id (the later-visited
        one would have been pruned), so whether a node is pruned does
        not depend on which of its relatives' siblings came first.

        This is the single hottest loop of JKB/JKB2 (every parent arc
        walks a whole contribution tree), so the counters are kept in
        locals and folded into ``metrics`` once at the end -- the final
        totals are identical, phase-boundary readers never observe a
        partial merge.
        """
        src_nodes = parent_tree.nodes
        src_sizes = parent_tree.sizes
        out_nodes = tree.nodes
        out_sizes = tree.sizes
        append_node = out_nodes.append
        append_size = out_sizes.append
        # The contribution's root spans the parent's whole array: as the
        # wrapper, over the parent's root at ``top``; otherwise it *is*
        # the entry at ``top``.
        top = len(src_nodes) - 1
        if wrapper is None:
            node_id, i = src_nodes[top], top - 1
        else:
            node_id, i = wrapper, top
        # The duplicate test runs *before* a node is entered, so pruned
        # subtrees are never walked.
        if node_id in tree_ids:
            # Present already, with every source that reaches it (see
            # module docstring): a duplicate encounter -- prune the
            # whole contribution without deriving anything.
            metrics.fold(tuple_io=1, duplicates=1)
            return False
        tuple_io, duplicates, generated, internal, source_bits = 1, 0, 0, 0, 0
        # The open node: its id, the last array index before its block,
        # the output length when it was entered and its surviving
        # children so far.  Its open ancestors wait on ``stack``.
        stop, entered, surviving = -1, len(out_nodes), 0
        stack: list[tuple[int, int, int, int]] = []
        while True:
            while i <= stop:
                # Every child is examined: the open node's copy is decided.
                is_source = node_id in sources
                if not is_source and surviving < 2:
                    # A non-source interior node that no longer branches
                    # is not special any more: splice it out.
                    kept = surviving == 1
                else:
                    # A new special node: one successful deduction.
                    append_node(node_id)
                    append_size(len(out_nodes) - entered)
                    if surviving:
                        internal += 1
                    tree_ids.add(node_id)
                    if is_source:
                        source_bits |= 1 << node_id
                    generated += 1
                    kept = True
                if not stack:
                    metrics.fold(
                        tuple_io=tuple_io,
                        duplicates=duplicates,
                        tuples_generated=generated,
                    )
                    tree.source_bits |= source_bits
                    tree.internal_count += internal
                    return kept
                node_id, stop, entered, surviving = stack.pop()
                if kept:
                    surviving += 1
            tuple_io += 1
            child_id = src_nodes[i]
            size = src_sizes[i]
            if child_id in tree_ids:
                # Duplicate encounter: prune the whole subtree without
                # descending.
                duplicates += 1
                i -= size
            elif size > 1:
                stack.append((node_id, stop, entered, surviving))
                node_id, stop, entered, surviving = child_id, i - size, len(out_nodes), 0
                i -= 1
            else:
                # A leaf: a source not yet present is copied; a non-source
                # leaf is never special and is spliced out.
                i -= 1
                if child_id in sources:
                    tree_ids.add(child_id)
                    source_bits |= 1 << child_id
                    generated += 1
                    append_node(child_id)
                    append_size(1)
                    surviving += 1

    # -- output -----------------------------------------------------------------

    def write_out(self, ctx: ExecutionContext) -> list[int]:
        """Assemble the answer by inverting the trees, then write it.

        Every tree is read once (cheap: the trees are tiny and usually
        memory-resident) and the successor list of each source node is
        written to the output file.
        """
        metrics = ctx.metrics
        trees = self._trees
        read_list = ctx.store.read_list
        answer: dict[int, int] = {}
        get = answer.get
        for node in ctx.topo_order:
            tree = trees[node]
            if tree.size:
                read_list(node)
            # A node can appear in its own tree as a branch (special)
            # node; it does not reach itself in an acyclic graph.
            node_bit = 1 << node
            bits = tree.source_bits & ~node_bit
            while bits:
                low = bits & -bits
                source = low.bit_length() - 1
                answer[source] = get(source, 0) | node_bit
                bits ^= low

        output_store = ctx.engine.make_list_store(PageKind.OUTPUT)
        output_nodes = [s for s in ctx.query.sources or ctx.topo_order if s in ctx.in_scope]
        charged = ctx.engine.supports(CAP_PAGE_COSTS)
        output_pages: set[PageId] = set()
        output_tuples = 0
        lists = ctx.lists
        for source in output_nodes:
            bits = get(source, 0)
            lists[source] = bits
            count = bits.bit_count()
            output_tuples += count
            output_store.create_list(source, count)
            if charged:
                output_pages.update(output_store.pages_of(source))
        if charged:
            ctx.engine.flush_output(output_pages)

        metrics.set_totals(
            distinct_tuples=sum(tree.size for tree in trees.values()),
            output_tuples=output_tuples,
        )
        return output_nodes

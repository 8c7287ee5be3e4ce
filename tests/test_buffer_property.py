"""Property test: the buffer pool against a small reference model.

Whatever sequence of ``access``/``create``/``pin``/``unpin``/
``unpin_all``/``evict``/``flush`` calls hypothesis draws, for every
replacement policy and capacities 1-8, the pool must evict the same
victims, raise :class:`BufferPoolExhaustedError` (and the other pool
errors) at the same points, and count the same requests, hits, reads
and writes as the model below.  The model is deliberately naive -- one
list of resident pages and a linear scan per eviction -- so it states
the replacement rules instead of re-implementing the pool's data
structures.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError, BufferPoolExhaustedError, PageNotPinnedError
from repro.storage.buffer import BufferPool, make_policy
from repro.storage.iostats import IoStats, Phase
from repro.storage.page import PageId, PageKind

POLICIES = ("lru", "mru", "fifo", "clock", "random")
KINDS = (PageKind.RELATION, PageKind.SUCCESSOR)
PAGES_PER_KIND = 6
UNIVERSE = tuple(PageId(kind, number) for kind in KINDS for number in range(PAGES_PER_KIND))
OPS = ("access", "create", "pin", "unpin", "unpin_all", "evict", "flush", "phase")


class PoolModel:
    """Reference buffer pool: a list of resident pages, scanned linearly.

    ``order`` holds the resident pages in recency order for LRU/MRU
    (a hit moves the page to the end) and in admission order for the
    other policies.
    """

    def __init__(self, capacity: int, policy: str, seed: int = 0) -> None:
        self.capacity = capacity
        self.policy = policy
        self.order: list[PageId] = []
        self.dirty: dict[PageId, bool] = {}
        self.pins: dict[PageId, int] = {}
        self.referenced: dict[PageId, bool] = {}
        self.hand = 0
        self.rng = random.Random(seed)
        self.phase = Phase.RESTRUCTURE
        self.requests: Counter = Counter()
        self.hits: Counter = Counter()
        self.reads: Counter = Counter()
        self.writes: Counter = Counter()
        self.victims: list[PageId] = []

    # -- replacement ---------------------------------------------------------

    def _note_hit(self, page: PageId) -> None:
        if self.policy in ("lru", "mru"):
            self.order.remove(page)
            self.order.append(page)
        elif self.policy == "clock":
            self.referenced[page] = True

    def _victim(self) -> PageId | None:
        unpinned = [page for page in self.order if not self.pins[page]]
        if not unpinned:
            return None
        if self.policy in ("lru", "fifo"):
            return unpinned[0]
        if self.policy == "mru":
            return unpinned[-1]
        if self.policy == "random":
            return self.rng.choice(unpinned)
        # CLOCK: second chance, the hand clearing reference bits.
        while True:
            page = self.order[self.hand]
            if not self.pins[page]:
                if not self.referenced[page]:
                    return page
                self.referenced[page] = False
            self.hand = (self.hand + 1) % len(self.order)

    def _write(self, page: PageId) -> None:
        self.writes[self.phase] += 1
        self.writes[page.kind] += 1

    def _drop(self, page: PageId) -> None:
        if self.dirty[page]:
            self._write(page)
        index = self.order.index(page)
        del self.order[index]
        del self.dirty[page], self.pins[page], self.referenced[page]
        if index < self.hand:
            self.hand -= 1
        if self.order and self.hand >= len(self.order):
            self.hand = 0
        self.victims.append(page)

    def _make_room(self) -> None:
        if len(self.order) >= self.capacity:
            victim = self._victim()
            if victim is None:
                raise BufferPoolExhaustedError("model: every frame pinned")
            self._drop(victim)

    def _admit(self, page: PageId, dirty: bool) -> None:
        self.order.append(page)
        self.dirty[page] = dirty
        self.pins[page] = 0
        self.referenced[page] = True

    # -- the pool's interface ------------------------------------------------

    def access(self, page: PageId, dirty: bool = False) -> None:
        if page in self.dirty:
            self.requests[self.phase] += 1
            self.hits[self.phase] += 1
            self._note_hit(page)
            self.dirty[page] = self.dirty[page] or dirty
            return
        self._make_room()
        self.requests[self.phase] += 1
        self.reads[self.phase] += 1
        self.reads[page.kind] += 1
        self._admit(page, dirty)

    def create(self, page: PageId) -> None:
        if page in self.dirty:
            self.dirty[page] = True
            self._note_hit(page)
            return
        self._make_room()
        self._admit(page, True)

    def pin(self, page: PageId, dirty: bool = False) -> None:
        self.access(page, dirty)
        self.pins[page] += 1

    def unpin(self, page: PageId) -> None:
        if not self.pins.get(page):
            raise PageNotPinnedError("model: not pinned")
        self.pins[page] -= 1

    def unpin_all(self) -> None:
        for page in self.pins:
            self.pins[page] = 0

    def evict(self, page: PageId) -> None:
        if page not in self.dirty:
            return
        if self.pins[page]:
            raise BufferPoolError("model: pinned")
        self._drop(page)

    def flush(self) -> None:
        for page in self.order:
            if self.dirty[page]:
                self._write(page)
                self.dirty[page] = False


def _apply(target, op: str, page: PageId, dirty: bool) -> type | None:
    """Run one operation; return the pool error class it raised, if any."""
    try:
        if op in ("access", "pin"):
            getattr(target, op)(page, dirty=dirty)
        elif op in ("create", "unpin", "evict"):
            getattr(target, op)(page)
        else:
            getattr(target, op)()
    except BufferPoolError as exc:
        return type(exc)
    return None


operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.sampled_from(UNIVERSE),
        st.booleans(),
        st.sampled_from(tuple(Phase)),
    ),
    max_size=100,
)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=operations)
def test_pool_matches_reference_model(policy, capacity, ops):
    stats = IoStats()
    pool = BufferPool(capacity, stats=stats, policy=make_policy(policy, seed=0))
    model = PoolModel(capacity, policy, seed=0)
    victims: list[PageId] = []
    for step, (op, page, dirty, phase) in enumerate(ops):
        before = {p for p in UNIVERSE if p in pool}
        if op == "phase":
            stats.phase = phase
            model.phase = phase
            continue
        pool_error = _apply(pool, op, page, dirty)
        model_error = _apply(model, op, page, dirty)
        assert pool_error is model_error, f"step {step}: {op} {page}"
        after = {p for p in UNIVERSE if p in pool}
        # At most one page leaves per operation, so the resident-set
        # difference is exactly the pool's victim.
        victims.extend(sorted(before - after, key=UNIVERSE.index))
        assert victims == model.victims, f"step {step}: {op} {page}"
        assert after == set(model.order)
        assert pool.pinned_count == sum(1 for count in model.pins.values() if count)
        assert all(pool.is_dirty(p) == model.dirty[p] for p in model.order)
        assert stats.requests == model.requests
        assert stats.hits == model.hits
        assert stats.reads == model.reads
        assert stats.writes == model.writes

"""The greedy pattern-rewrite driver.

Canonicalization-style passes register :class:`RewritePattern` objects; the
:class:`GreedyRewriteDriver` applies them until a fixed point is reached.
It seeds a worklist, once, with every op under the root that some pattern
of its bucket *may match as it stands* (:meth:`RewritePattern.may_match`, a
cheap necessary condition: a few percent of a freshly unrolled body) and
afterwards only revisits operations whose operands, users or position
actually changed — the hot-path friendly driver the cleanup passes run once
per DSE evaluation.  An op that was not seeded is visited when, and only
when, a rewrite's notification (``enqueue``, ``enqueue_tree``,
``enqueue_users``, ``defer_operand_definers``; an erasure that leaves a
block holding only its terminator names the block's parent op) names it, at
the program position where the unfiltered seed would have come up: the
sequence of *successful* rewrites is that of seeding everything, the visits
that miss are not made.  The worklist is *deduplicating* and
*program-ordered*: the seed pass is a plain pre-order list (no per-op cost
beyond the walk), while revisits enter a heap keyed by the op's position
(block order keys along the ancestor chain, kept by the blocks' intrusive op
lists) and interleave with the seeds in program order.  An op enqueued N
times during a constant-folding storm is visited once, after every operation
that precedes it — by the time it pops, its operands have already been
folded; erasure-driven revisits of a value's definer are deferred to the
next drain generation, so a many-user constant is visited once per
generation, not once per erased user.

Pattern dispatch is *bucketed*: a :class:`PatternSet` groups its patterns
into ``dict[op name -> tuple of patterns]`` (patterns with ``op_name =
None`` are merged into every bucket, benefit order preserved), so matching
an op is a single dict lookup instead of a scan over the whole pattern list.
A set is immutable once built: a pass builds its set once per process and
every driver — one per run, holding only the run's worklist and counts —
shares it, from any thread.  Per-pattern and per-bucket hit/miss counts
accumulate on the driver (``pattern_stats`` / ``bucket_stats``) and each
``rewrite()`` reports its deltas through :func:`repro.obs.add_pattern_stats`
— what ``--print-pass-timing`` prints, and where a caller that wants the
aggregate over many drivers reads it
(``pattern_stats_of(session.metrics.counters)`` under ``obs.session()``).  A
miss is a *visit* that matched nothing, so the miss column counts only the
ops the worklist had a reason to look at.

Linear per-block analyses (CSE, store forwarding, memref-access folding)
are not patterns and do not run here: they make one scan per block through
:func:`repro.ir.traversal.scan_blocks` and report their hits and misses
under the same ``pattern.<name>.*`` counters.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro import obs
from repro.ir.builder import Builder, InsertionPoint
from repro.ir.value import OpResult, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import Block
    from repro.ir.operation import Operation

class PatternRewriter(Builder):
    """Builder handed to patterns; records changes and feeds the worklist.

    Every structured mutation (``insert``, ``replace_op``, ``erase_op``,
    ``replace_all_uses``, ``enqueue``) notifies the owning driver so only
    genuinely affected operations are revisited.
    """

    def __init__(self, driver: "Optional[GreedyRewriteDriver]" = None):
        super().__init__()
        self.changed = False
        #: Erased operations, held by (identity-hashed) object reference:
        #: storing bare id() ints would let CPython reuse a freed op's id for
        #: a newly created op, falsely marking it erased.
        self._erased: set = set()
        self._driver = driver

    # -- mutation API ----------------------------------------------------------------------

    def insert(self, op: "Operation") -> "Operation":
        inserted = super().insert(op)
        self.changed = True
        if self._driver is not None:
            self._driver.enqueue_tree(inserted)
        return inserted

    def replace_op(self, op: "Operation", new_values: Sequence[Value] | Value) -> None:
        """Replace all results of ``op`` with ``new_values`` and erase it."""
        if isinstance(new_values, Value):
            new_values = [new_values]
        if len(new_values) != len(op.results):
            raise ValueError("replacement value count mismatch")
        if self._driver is not None:
            for result in op.results:
                self._driver.enqueue_users(result)
        for result, new_value in zip(op.results, new_values):
            result.replace_all_uses_with(new_value)
        self.erase_op(op)

    def erase_op(self, op: "Operation") -> None:
        block = op.parent
        self._notify_erasure(op)
        self._mark_erased(op)
        op.erase()
        self.changed = True
        self._notify_emptied(block)

    def remove_op(self, op: "Operation") -> None:
        """Remove ``op`` from its block without the no-uses check of ``erase``."""
        block = op.parent
        self._notify_erasure(op)
        self._mark_erased(op)
        op.drop_all_references()
        block.remove(op)
        self.changed = True
        self._notify_emptied(block)

    def _notify_erasure(self, op: "Operation") -> None:
        # Re-enqueue the defining ops of every operand referenced anywhere in
        # the erased subtree — a value whose only users lived inside the
        # subtree just became dead.  Definers inside the subtree are enqueued
        # too but skipped at pop (they are marked erased).
        if self._driver is None:
            return
        if op.regions:
            for nested in op.walk():
                self._driver.defer_operand_definers(nested)
        else:
            self._driver.defer_operand_definers(op)

    def _notify_emptied(self, block: "Optional[Block]") -> None:
        # A block left holding only its terminator (a loop body, an
        # ``affine.if`` branch) may let its region op match now.  That op was
        # visited before its body, in pre-order, so nothing else brings it
        # back.
        driver = self._driver
        if driver is None or block is None or len(block) > 1 \
                or (len(block) == 1 and block.terminator is None):
            return
        parent = block.parent_op
        if parent is not None and parent is not driver._root:
            self.enqueue(parent)

    def _mark_erased(self, op: "Operation") -> None:
        # Mark the whole subtree: descendants of an erased region op keep
        # their parent links, so the driver relies on this to skip them in
        # O(1) instead of walking ancestor chains per popped op.
        if op.regions:
            for nested in op.walk():
                self._erased.add(nested)
        else:
            self._erased.add(op)

    def replace_all_uses(self, old: Value, new: Value) -> None:
        """RAUW that re-enqueues every (former) user of ``old``."""
        if self._driver is not None:
            self._driver.enqueue_users(old)
        old.replace_all_uses_with(new)
        self.changed = True

    def enqueue(self, op: "Operation") -> None:
        """Ask the driver to (re)visit ``op`` — e.g. after moving it.

        Call it once ``op`` is in its new state: like a seed, the request is
        dropped when no pattern of the op's bucket may match it as it stands
        (a later change to its operands or uses brings its own notification).
        """
        driver = self._driver
        if driver is not None and driver.may_match(op):
            driver.enqueue(op)

    # -- bookkeeping -----------------------------------------------------------------------

    def was_erased(self, op: "Operation") -> bool:
        return op in self._erased

    def notify_changed(self) -> None:
        self.changed = True


class RewritePattern:
    """Base class of rewrite patterns.

    Subclasses set :attr:`op_name` (or None to match every operation) and
    implement :meth:`match_and_rewrite`, returning True when they changed the
    IR.
    """

    op_name: Optional[str] = None
    benefit: int = 1

    def match_and_rewrite(self, op: "Operation", rewriter: PatternRewriter) -> bool:
        raise NotImplementedError

    def may_match(self, op: "Operation") -> bool:
        """A cheap *necessary* condition for :meth:`match_and_rewrite` to
        apply to ``op`` as it stands.

        The worklist seeds only ops for which some pattern of their bucket
        answers True; an op that starts to qualify later arrives through the
        rewriter's notifications, so read what they announce — the op's
        operands and the uses of its results — or what no rewrite can have
        changed before the op's own turn in program order (its own regions:
        they come after it).  Answering True for an op that does not match
        costs one wasted visit; answering False for one that does loses the
        rewrite — so never make it sufficient, only necessary.
        """
        return True


class PatternSet:
    """Benefit-ordered patterns and their per-op-name dispatch buckets.

    Immutable once built, so one set serves every driver that runs it, on
    any thread: its patterns must keep no state of their own between
    ``match_and_rewrite`` calls.  Iterating a set yields its patterns in
    benefit order.
    """

    __slots__ = ("patterns", "generic", "buckets")

    def __init__(self, patterns: Iterable):
        patterns = list(patterns)
        for pattern in patterns:
            if not isinstance(pattern, RewritePattern):
                raise TypeError(
                    f"expected RewritePattern instances, got {pattern!r} "
                    f"(did you pass the class instead of an instance?)")
        self.patterns: tuple[RewritePattern, ...] = tuple(
            sorted(patterns, key=lambda p: -p.benefit))
        #: Patterns with op_name None, benefit-ordered (the bucket of any op
        #: name no pattern singled out).
        self.generic: tuple[RewritePattern, ...] = tuple(
            p for p in self.patterns if p.op_name is None)
        #: op name -> benefit-ordered patterns (generic patterns merged in).
        named = {p.op_name for p in self.patterns if p.op_name is not None}
        self.buckets: dict[str, tuple[RewritePattern, ...]] = {
            name: tuple(p for p in self.patterns
                        if p.op_name is None or p.op_name == name)
            for name in named}

    def __iter__(self):
        return iter(self.patterns)


class GreedyRewriteDriver:
    """Applies op patterns to a fixed point.

    ``patterns`` is a :class:`PatternSet`, shared as it is, or an iterable
    of patterns, grouped into a set of the driver's own.
    """

    def __init__(self, patterns: "PatternSet | Iterable",
                 max_iterations: int = 32):
        if not isinstance(patterns, PatternSet):
            patterns = PatternSet(patterns)
        self.op_patterns = patterns.patterns
        self._generic = patterns.generic
        self._buckets = patterns.buckets
        self.max_iterations = max_iterations
        #: Pattern class name -> [hits, misses] accumulated over rewrite() calls.
        self.pattern_stats: dict[str, list[int]] = {}
        #: Dispatch bucket (op name) -> [hits, misses] accumulated likewise.
        self.bucket_stats: dict[str, list[int]] = {}
        #: Per-op visit counts of the last worklist run (op -> pops that
        #: reached pattern matching); pins revisit storms in tests.
        self.visit_counts: dict["Operation", int] = {}
        self._run_stats: dict[str, list[int]] = {}
        self._run_bucket_stats: dict[str, list[int]] = {}
        self._stats_entries: dict[int, list[int]] = {}
        #: The deduplicating worklist: a heap of (program-order key, seq, op)
        #: plus the id-set of pending ops (ids only of ops the heap or the
        #: deferred list strongly reference, so freed-id reuse cannot alias
        #: a pending entry).  ``_deferred`` holds erasure-driven definer
        #: revisits until the heap drains (see :meth:`defer_operand_definers`).
        self._heap: list = []
        self._pending: set[int] = set()
        self._deferred: list = []
        self._seq = 0
        #: Per-run cache of block-level order-key prefixes.
        self._block_prefix: dict = {}
        self._root: Optional[Operation] = None

    # -- worklist management ---------------------------------------------------------------

    def enqueue(self, op: "Operation") -> None:
        if id(op) in self._pending:
            return
        if not (op.name in self._buckets or self._generic):
            return  # no pattern could ever match: keep it out of the queue
        self._pending.add(id(op))
        self._seq += 1
        heapq.heappush(self._heap, (self._order_key(op), self._seq, op))

    def may_match(self, op: "Operation") -> bool:
        """Whether some pattern of ``op``'s bucket may match it as it stands
        (:meth:`RewritePattern.may_match`)."""
        for pattern in self._buckets.get(op.name, self._generic):
            if pattern.may_match(op):
                return True
        return False

    def enqueue_tree(self, op: "Operation") -> None:
        for nested in op.walk():
            self.enqueue(nested)

    def enqueue_users(self, value: Value) -> None:
        uses = value._uses
        if len(uses) == 1:
            # Single-use fast path: skip the `users` dedup-list build — the
            # common case by far (SSA chains), and `enqueue` dedups via
            # `_pending` anyway, so the dedup list only ever saved re-checks.
            self.enqueue(next(iter(uses.values())).owner)
            return
        for use in uses.values():
            self.enqueue(use.owner)

    def defer_operand_definers(self, op: "Operation") -> None:
        """Defer the definers of ``op``'s operands to the next drain generation.

        Erasing an op may leave its operands' definers dead, so they must be
        revisited — but *immediately* re-enqueueing them is the revisit
        storm: a value with N users (a shared constant, a memref) sits
        earliest in program order, so it would pop and miss once per erased
        user.  Deferred definers only enter the heap when the current
        generation drains, deduplicating the whole storm into one visit.
        """
        pending = self._pending
        deferred = self._deferred
        buckets = self._buckets
        generic = self._generic
        for use in op._operands:
            value = use.value
            if isinstance(value, OpResult):
                definer = value.operation
                if id(definer) not in pending \
                        and (definer.name in buckets or generic):
                    pending.add(id(definer))
                    deferred.append(definer)

    def _order_key(self, op: "Operation") -> tuple:
        """The op's program-order position under the run root.

        ``key(op) = key(parent op) + (region index, block index, op order
        key)``, so an ancestor's key is a strict prefix of its descendants'
        and tuple comparison is pre-order program order.  Block-level
        prefixes are cached per run (every op of a block shares one); keys
        are captured at enqueue time — an op moved while pending keeps its
        old position in the queue (deterministic, and revisits re-key it).
        """
        block = op.parent
        if block is None:
            return ()  # detached: sorts first, skipped at processing
        if not block._order_valid:
            block._renumber()
        prefix = self._block_prefix.get(block)
        if prefix is None:
            prefix = self._compute_block_prefix(block)
            self._block_prefix[block] = prefix
        return prefix + (op._order,)

    def _compute_block_prefix(self, block: "Block") -> tuple:
        region = block.parent
        parent_op = region.parent if region is not None else None
        if parent_op is None or parent_op is self._root \
                or parent_op.parent is None:
            return ()
        region_index = 0 if len(parent_op.regions) == 1 \
            else parent_op.regions.index(region)
        block_index = 0 if len(region.blocks) == 1 \
            else region.blocks.index(block)
        return self._order_key(parent_op) + (region_index, block_index)

    # -- execution -------------------------------------------------------------------------

    def rewrite(self, root: "Operation") -> bool:
        """Apply every pattern under ``root`` to a fixed point.

        Returns True when anything changed.  Raises RuntimeError when the
        pattern set fails to converge (a pattern keeps reporting changes
        beyond the iteration budget).
        """
        self._root = root
        self._run_stats = {}
        self._run_bucket_stats = {}
        # Per-instance stat entries resolved once (id lookup in the hot loop
        # instead of type().__name__ hashing per attempt).
        self._stats_entries = {
            id(pattern): self._run_stats.setdefault(type(pattern).__name__, [0, 0])
            for pattern in self.op_patterns}
        changed = False
        if self.op_patterns:
            changed = self._run_worklist(root)
        for name, (hits, misses) in self._run_stats.items():
            entry = self.pattern_stats.setdefault(name, [0, 0])
            entry[0] += hits
            entry[1] += misses
        for name, (hits, misses) in self._run_bucket_stats.items():
            entry = self.bucket_stats.setdefault(name, [0, 0])
            entry[0] += hits
            entry[1] += misses
        # One registry merge per rewrite() run (no per-attempt overhead).
        if obs.active() is not None:
            obs.add_pattern_stats(self._run_stats, self._run_bucket_stats)
        return changed

    def _count(self, pattern, matched: bool) -> None:
        self._stats_entries[id(pattern)][0 if matched else 1] += 1

    def _bucket_entry(self, op_name: str) -> list[int]:
        entry = self._run_bucket_stats.get(op_name)
        if entry is None:
            entry = self._run_bucket_stats[op_name] = [0, 0]
        return entry

    # -- the worklist ----------------------------------------------------------------------

    def _run_worklist(self, root: "Operation") -> bool:
        rewriter = PatternRewriter(driver=self)
        self._heap = []
        self._pending = set()
        self._deferred = []
        self._seq = 0
        self._block_prefix = {}
        self.visit_counts = {}
        buckets = self._buckets
        generic = self._generic
        # The seed pass: every op some pattern of its bucket may match as it
        # stands, once, in program (pre-)order — a plain list advanced by
        # index, no keys and no heap involved.  Only *revisits* pay for the
        # priority structure; an op no pattern may match yet is not visited
        # until a rewrite's notification says it changed.
        seeds = []
        matchable = 0
        for op in root.walk():
            if op is root or not (op.name in buckets or generic):
                continue
            matchable += 1
            if self.may_match(op):
                seeds.append(op)
        pending = self._pending = {id(op) for op in seeds}
        # Non-convergence guard: a healthy run applies at most a few rewrites
        # per op; max_iterations bounds the rewrites-per-op ratio.
        budget = max(1, self.max_iterations) * max(1, matchable)
        rewrites = 0
        changed = False
        heap = self._heap
        deferred = self._deferred
        visits = self.visit_counts
        pop = heapq.heappop
        push = heapq.heappush
        index = 0
        num_seeds = len(seeds)
        next_seed_key = None  # computed only while revisits are queued
        while True:
            if heap:
                if index < num_seeds:
                    if next_seed_key is None:
                        next_seed_key = self._order_key(seeds[index])
                    if heap[0][0] <= next_seed_key:
                        op = pop(heap)[2]
                    else:
                        op = seeds[index]
                        index += 1
                        next_seed_key = None
                else:
                    op = pop(heap)[2]
            elif index < num_seeds:
                op = seeds[index]
                index += 1
                next_seed_key = None
            elif deferred:
                # Next generation: the deferred (erasure-driven) revisits,
                # re-keyed at their current positions, again program-ordered.
                for revisit in deferred:
                    self._seq += 1
                    push(heap, (self._order_key(revisit), self._seq, revisit))
                del deferred[:]
                continue
            else:
                break
            pending.discard(id(op))
            # Erased region ops have their whole subtree marked erased by the
            # rewriter, so attachment is the O(1) check — no ancestor walks.
            if op.parent is None or rewriter.was_erased(op):
                continue
            patterns = buckets.get(op.name, generic)
            if not patterns:
                continue
            visits[op] = visits.get(op, 0) + 1
            bucket_entry = self._bucket_entry(op.name)
            rewriter.insertion_point = InsertionPoint.before(op)
            for pattern in patterns:
                rewriter.changed = False
                if pattern.match_and_rewrite(op, rewriter) or rewriter.changed:
                    self._count(pattern, True)
                    bucket_entry[0] += 1
                    rewrites += 1
                    changed = True
                    if rewrites > budget:
                        raise RuntimeError(
                            f"pattern application did not converge after "
                            f"{rewrites} rewrites "
                            f"(budget {budget}, max_iterations={self.max_iterations})")
                    # Give other patterns (and this one again) a later shot
                    # at whatever the rewrite left behind.
                    if op.parent is not None and not rewriter.was_erased(op):
                        self.enqueue(op)
                    break
                self._count(pattern, False)
                if rewriter.was_erased(op):
                    break
            else:
                bucket_entry[1] += 1
        return changed

    def max_visits(self) -> int:
        """The most times any single op was visited in the last worklist run."""
        return max(self.visit_counts.values(), default=0)


def apply_patterns_greedily(root: "Operation", patterns: Iterable,
                            max_iterations: int = 32) -> bool:
    """Apply ``patterns`` (a :class:`PatternSet` or an iterable of patterns)
    to every op nested under ``root`` until fixpoint.

    Returns True if anything changed.  ``root`` itself is not rewritten.
    """
    return GreedyRewriteDriver(patterns, max_iterations=max_iterations).rewrite(root)

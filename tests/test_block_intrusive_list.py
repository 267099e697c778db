"""Property-style tests of the intrusive linked Block representation.

Random mutation sequences are applied simultaneously to a linked Block and
to a plain-list reference model; after every step both must agree on
iteration order, length, positional indices and pairwise ordering.  This
pins the linked representation to the semantics of the seed's plain-list
storage.
"""

import pickle
import random

import pytest

from repro.ir import Block, Builder, InsertionPoint, ModuleOp, Operation, verify
from repro.ir.block import _ORDER_STRIDE


def _op(tag: int) -> Operation:
    return Operation("t.op", attributes={"tag": tag})


def _assert_same(block: Block, reference: list) -> None:
    actual = list(block.operations)
    assert len(block) == len(reference)
    assert [id(op) for op in actual] == [id(op) for op in reference]
    if reference:
        assert block.first_op is reference[0]
        assert block.last_op is reference[-1]
        assert block.operations[0] is reference[0]
        assert block.operations[-1] is reference[-1]
    else:
        assert block.first_op is None and block.last_op is None
        assert block.empty()


class TestRandomizedMutations:
    @pytest.mark.parametrize("seed", range(8))
    def test_block_matches_list_model(self, seed):
        rng = random.Random(seed)
        block = Block()
        reference: list[Operation] = []
        counter = 0

        def fresh():
            nonlocal counter
            counter += 1
            return _op(counter)

        for step in range(300):
            choice = rng.random()
            if choice < 0.22 or not reference:
                op = fresh()
                block.append(op)
                reference.append(op)
            elif choice < 0.32:
                op = fresh()
                block.prepend(op)
                reference.insert(0, op)
            elif choice < 0.44:
                position = rng.randrange(len(reference) + 1)
                op = fresh()
                block.insert(position, op)
                reference.insert(position, op)
            elif choice < 0.56:
                anchor = reference[rng.randrange(len(reference))]
                op = fresh()
                if rng.random() < 0.5:
                    block.insert_before(anchor, op)
                    reference.insert(reference.index(anchor), op)
                else:
                    block.insert_after(anchor, op)
                    reference.insert(reference.index(anchor) + 1, op)
            elif choice < 0.68:
                op = reference[rng.randrange(len(reference))]
                if rng.random() < 0.5:
                    block.remove(op)
                else:
                    op.detach()
                reference.remove(op)
            elif choice < 0.78 and len(reference) >= 2:
                mover = reference[rng.randrange(len(reference))]
                anchor = reference[rng.randrange(len(reference))]
                if mover is anchor:
                    continue
                reference.remove(mover)
                if rng.random() < 0.5:
                    mover.move_before(anchor)
                    reference.insert(reference.index(anchor), mover)
                else:
                    mover.move_after(anchor)
                    reference.insert(reference.index(anchor) + 1, mover)
            elif choice < 0.88:
                position = rng.randrange(len(reference) + 1)
                batch = [fresh() for _ in range(rng.randrange(1, 5))]
                block.insert_all(position, batch)
                reference[position:position] = batch
            else:
                anchor = reference[rng.randrange(len(reference))]
                batch = [fresh() for _ in range(rng.randrange(1, 4))]
                if rng.random() < 0.5:
                    block.insert_all_after(anchor, batch)
                    reference[reference.index(anchor) + 1:
                              reference.index(anchor) + 1] = batch
                else:
                    block.insert_all_before(anchor, batch)
                    reference[reference.index(anchor):
                              reference.index(anchor)] = batch

            _assert_same(block, reference)
            if reference and step % 10 == 0:
                probe = reference[rng.randrange(len(reference))]
                assert block.index_of(probe) == reference.index(probe)
                other = reference[rng.randrange(len(reference))]
                if probe is not other:
                    assert probe.is_before_in_block(other) == (
                        reference.index(probe) < reference.index(other))

    def test_reappend_moves_to_end(self):
        block = Block()
        first = block.append(_op(1))
        block.append(_op(2))
        block.append(first)  # re-appending an owned op moves it
        assert [op.get_attr("tag") for op in block.operations] == [2, 1]
        assert len(block) == 2

    def test_positional_insert_moves_within_block_like_a_list(self):
        # Seed semantics: the op is removed first, so the index refers to
        # positions after removal ([A,B,C].insert(2, A) -> [B,C,A]).
        block = Block()
        a, b, c = (block.append(_op(i)) for i in range(3))
        block.insert(2, a)
        assert list(block.operations) == [b, c, a]

    def test_block_iteration_snapshots(self):
        # `for op in block` must visit every op even when the loop body
        # erases ops ahead of the cursor (the seed's list-copy semantics).
        block = Block()
        ops = [block.append(_op(i)) for i in range(5)]
        visited = []
        for op in block:
            visited.append(op)
            if op is ops[1]:
                block.remove(ops[2])
        assert visited == ops


class TestOrderKeys:
    def test_same_gap_insertion_burst_stays_correct(self):
        """Hammering one gap exhausts the order keys; ordering must survive."""
        block = Block()
        left = block.append(_op(0))
        right = block.append(_op(1))
        inserted = []
        for i in range(200):  # far beyond the ~20-insert gap capacity
            op = _op(2 + i)
            block.insert_after(left, op)
            inserted.append(op)
        assert list(block.operations) == [left, *reversed(inserted), right]
        assert left.is_before_in_block(right)
        assert inserted[-1].is_before_in_block(inserted[0])
        assert not right.is_before_in_block(left)

    def test_order_keys_monotone_after_renumber(self):
        block = Block()
        anchor = block.append(_op(0))
        block.append(_op(1))
        for i in range(64):
            block.insert_after(anchor, _op(2 + i))
        block.ensure_order()
        orders = [op._order for op in block.operations]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)

    def test_appends_never_invalidate(self):
        block = Block()
        for i in range(100):
            block.append(_op(i))
            block.prepend(_op(1000 + i))
        assert block._order_valid

    def test_stride_gap_is_large(self):
        # The renumber stride must leave room for midpoint insertion.
        assert _ORDER_STRIDE >= 1 << 10


class TestViewSemantics:
    def _block(self, count=5):
        block = Block()
        ops = [block.append(_op(i)) for i in range(count)]
        return block, ops

    def test_indexing_and_slices(self):
        block, ops = self._block()
        assert block.operations[0] is ops[0]
        assert block.operations[4] is ops[4]
        assert block.operations[-2] is ops[-2]
        assert block.operations[1:3] == ops[1:3]
        assert block.operations[:-1] == ops[:-1]
        with pytest.raises(IndexError):
            block.operations[5]

    def test_reversed_contains_bool(self):
        block, ops = self._block()
        assert list(reversed(block.operations)) == list(reversed(ops))
        assert ops[2] in block.operations
        assert _op(99) not in block.operations
        assert bool(block.operations)
        assert not bool(Block().operations)

    def test_iteration_survives_detaching_current(self):
        block, ops = self._block()
        visited = []
        for op in block.operations:
            visited.append(op)
            op.detach()
        assert visited == ops
        assert block.empty()


class TestInsertionPoints:
    def test_before_and_after_are_anchor_based(self):
        block = Block()
        a = block.append(_op(1))
        c = block.append(_op(3))
        builder = Builder(InsertionPoint.before(c))
        b = builder.insert(_op(2))
        assert list(block.operations) == [a, b, c]
        builder = Builder(InsertionPoint.after(c))
        d = builder.insert(_op(4))
        assert list(block.operations) == [a, b, c, d]

    def test_consecutive_inserts_keep_order(self):
        block = Block()
        anchor = block.append(_op(0))
        builder = Builder(InsertionPoint.before(anchor))
        first = builder.insert(_op(1))
        second = builder.insert(_op(2))
        assert list(block.operations) == [first, second, anchor]

    def test_at_start_tracks_true_block_start(self):
        # The start anchor resolves at first insert: ops appended between
        # creating the point and using it must not displace it (the old
        # index-0 semantics).
        block = Block()
        point = InsertionPoint.at_start(block)
        x = block.append(_op(1))
        y = point.insert(_op(2))
        z = point.insert(_op(3))
        assert list(block.operations) == [y, z, x]

    def test_at_start_on_empty_block_keeps_tracking_front(self):
        # First insert into an empty block must not degrade the point to
        # "at end": later external appends stay behind the point's inserts.
        block = Block()
        point = InsertionPoint.at_start(block)
        a = point.insert(_op(1))
        x = block.append(_op(9))
        b = point.insert(_op(2))
        assert list(block.operations) == [a, b, x]

    def test_failed_splice_leaves_no_half_taken_ops(self):
        block = Block()
        a = block.append(_op(1))
        b = block.append(_op(2))
        other = Block()
        c = other.append(_op(3))
        with pytest.raises(ValueError):
            block.insert_all_after(b, [c, b])  # b is its own anchor
        assert c.parent is other  # c must not have been detached
        assert list(other.operations) == [c]
        assert list(block.operations) == [a, b]

    def test_after_point_stays_pinned_to_anchor(self):
        # Ops appended behind the anchor between creating the point and
        # using it must not displace it (the old index+1 semantics).
        block = Block()
        a = block.append(_op(1))
        point = InsertionPoint.after(a)
        y = block.append(_op(9))
        b = point.insert(_op(2))
        c = point.insert(_op(3))
        assert list(block.operations) == [a, b, c, y]

    def test_point_follows_moved_anchor(self):
        block_a, block_b = Block(), Block()
        anchor = block_a.append(_op(0))
        point = InsertionPoint.before(anchor)
        block_b.append(anchor)  # anchor moves to another block
        inserted = point.insert(_op(1))
        assert inserted.parent is block_b
        assert list(block_b.operations) == [inserted, anchor]


class TestPickling:
    """A block pickles with the module that holds it (one flat encoding,
    :mod:`repro.ir.encoding`); a bare block or an op inside one does not."""

    def test_round_trip_preserves_order_and_links(self):
        module = ModuleOp()
        block = module.body
        ops = [block.append(_op(i)) for i in range(10)]
        anchor = ops[5]
        for i in range(5):
            block.insert_before(anchor, _op(100 + i))
        expected = [op.get_attr("tag") for op in block.operations]
        restored = pickle.loads(pickle.dumps(module)).body
        assert [op.get_attr("tag") for op in restored.operations] == expected
        assert all(op.parent is restored for op in restored.operations)
        restored_ops = list(restored.operations)
        assert restored_ops[0].is_before_in_block(restored_ops[-1])

    def test_deep_block_does_not_exhaust_recursion(self):
        """Pickling must not recurse once per linked op (5k >> stack limit)."""
        module = ModuleOp()
        for i in range(5000):
            module.append(_op(i))
        restored = pickle.loads(pickle.dumps(module)).body
        assert len(restored) == 5000
        assert [op.get_attr("tag") for op in restored.operations] == list(range(5000))

    def test_an_op_inside_a_block_is_pickled_with_its_root(self):
        module = ModuleOp()
        inner = module.append(_op(1))
        with pytest.raises(TypeError, match="inside a block"):
            pickle.dumps(inner)
        assert pickle.loads(pickle.dumps(inner.detach())).get_attr("tag") == 1

    def test_module_round_trip_verifies(self, gemm_module):
        restored = pickle.loads(pickle.dumps(gemm_module))
        verify(restored)
        from repro.ir import print_op

        assert print_op(restored, stable_ids=True) == \
            print_op(gemm_module, stable_ids=True)


class TestErrors:
    def test_remove_foreign_op_raises(self):
        block = Block()
        foreign = _op(1)
        with pytest.raises(ValueError):
            block.remove(foreign)

    def test_insert_before_foreign_anchor_raises(self):
        block = Block()
        foreign = _op(1)
        with pytest.raises(ValueError):
            block.insert_before(foreign, _op(2))

    def test_insert_relative_to_itself_raises(self):
        block = Block()
        a = block.append(_op(1))
        x = block.append(_op(2))
        for method in (block.insert_before, block.insert_after):
            with pytest.raises(ValueError):
                method(x, x)
        # The list must stay intact after the rejected calls.
        assert list(block.operations) == [a, x]

    def test_index_of_foreign_op_raises(self):
        block = Block()
        with pytest.raises(ValueError):
            block.index_of(_op(1))

    def test_is_before_requires_same_block(self):
        block_a, block_b = Block(), Block()
        a = block_a.append(_op(1))
        b = block_b.append(_op(2))
        with pytest.raises(ValueError):
            a.is_before_in_block(b)

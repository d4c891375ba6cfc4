"""Unit and property tests for the message buffer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.core.messages import MessageBuffer
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed

from tests.conftest import engine_for
from tests.core.reference_messages import reference_deliver


class TestSend:
    def test_scalar_broadcast(self):
        buf = MessageBuffer("sum")
        count = buf.send(np.array([1, 2, 3]), 5.0)
        assert count == 3
        assert buf.pending == 3

    def test_array_values(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2]), np.array([1.0, 2.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2]
        assert values.tolist() == [1.0, 2.0]

    def test_empty_send(self):
        buf = MessageBuffer("sum")
        assert buf.send(np.array([], dtype=np.int64), 1.0) == 0

    def test_shape_mismatch_rejected(self):
        buf = MessageBuffer("sum")
        with pytest.raises(ValueError):
            buf.send(np.array([1, 2]), np.array([1.0, 2.0, 3.0]))

    def test_unknown_combiner_rejected(self):
        with pytest.raises(ValueError):
            MessageBuffer("median")
        with pytest.raises(ValueError, match="unknown combiner 'max'"):
            MessageBuffer("max")

    def test_peak_pending(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2, 3]), 1.0)
        buf.deliver()
        buf.send(np.array([1]), 1.0)
        assert buf.peak_pending == 3


class TestDeliver:
    def test_sum_combiner(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2, 1]), np.array([1.0, 2.0, 3.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2]
        assert values.tolist() == [4.0, 2.0]
        assert counts.tolist() == [2, 1]

    def test_min_combiner(self):
        buf = MessageBuffer("min")
        buf.send(np.array([5, 5, 7]), np.array([3.0, 1.0, 9.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [5, 7]
        assert values.tolist() == [1.0, 9.0]

    def test_no_combiner_keeps_duplicates(self):
        buf = MessageBuffer(None)
        buf.send(np.array([2, 1, 2]), np.array([1.0, 2.0, 3.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2, 2]
        assert sorted(values[1:].tolist()) == [1.0, 3.0]
        assert counts.tolist() == [1, 1, 1]

    def test_deliver_empties(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.deliver()
        assert buf.pending == 0
        dests, values, counts = buf.deliver()
        assert dests.size == 0 and values.size == 0 and counts.size == 0

    def test_multiple_sends_accumulate(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.send(np.array([1]), 2.0)
        _, values, _counts = buf.deliver()
        assert values.tolist() == [3.0]

    def test_clear(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.clear()
        assert buf.pending == 0
        dests, _, _ = buf.deliver()
        assert dests.size == 0


class TestProperties:
    @given(
        sends=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_combiner_conserves_mass(self, sends):
        buf = MessageBuffer("sum")
        total = 0.0
        for dests, value in sends:
            buf.send(np.asarray(dests), value)
            total += value * len(dests)
        _, values, _counts = buf.deliver()
        assert values.sum() == pytest.approx(total, abs=1e-9)

    @given(
        sends=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_min_combiner_matches_reference(self, sends):
        buf = MessageBuffer("min")
        reference = {}
        for dests, value in sends:
            buf.send(np.asarray(dests), value)
            for d in dests:
                reference[d] = min(reference.get(d, np.inf), value)
        dests, values, counts = buf.deliver()
        assert dests.tolist() == sorted(reference)
        for d, v in zip(dests, values):
            assert v == pytest.approx(reference[int(d)])


#: Values chosen to break a float reduction that is not canonical:
#: repeats, both infinities, subnormals, magnitudes that cancel.
_SPECIAL_VALUES = [
    0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16, -1e16,
    np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.0**-1022,
]
_MAX_DEST = 12  # few destinations, so most of them collide


def _values(combiner):
    values = st.sampled_from(_SPECIAL_VALUES) | st.floats(allow_nan=False)
    if combiner in (None, "sum"):
        return values | st.just(-0.0)
    # minimum(0.0, -0.0) is whichever came last in both the reference and
    # the buffer (the two compare equal under any sort): not part of the
    # contract, so the zero is kept positive.
    return values.map(lambda v: v + 0.0)


def _chunks(combiner):
    """One barrier's sends: scalar multicasts, aligned arrays,
    cancellation triples that sum to 0.0 or 1.0 depending on the order,
    and ``(dests, one value per run, counts)`` runs — zero-count and
    single-destination runs included."""
    dest = st.integers(min_value=0, max_value=_MAX_DEST)
    value = _values(combiner)
    multicast = st.tuples(st.lists(dest, min_size=1, max_size=8), value)
    aligned = st.lists(st.tuples(dest, value), min_size=1, max_size=8).map(
        lambda pairs: tuple(map(list, zip(*pairs)))
    )
    triple = st.tuples(dest, st.permutations([1e16, 1.0, -1e16])).map(
        lambda dv: ([dv[0]] * 3, list(dv[1]))
    )
    run = st.tuples(
        value | st.sampled_from([1e16, 1.0, -1e16]), st.lists(dest, max_size=4)
    )
    runs = st.lists(run, min_size=1, max_size=6).map(
        lambda rs: (
            [d for _, ds in rs for d in ds],
            [v for v, _ in rs],
            [len(ds) for _, ds in rs],
        )
    )
    return st.lists(multicast | aligned | triple | runs, min_size=1, max_size=12)


def _per_message(chunk):
    """A drawn chunk as one ``(dests, values)`` pair of aligned arrays —
    what the chunk means, whatever the buffer stores."""
    dests = np.asarray(chunk[0], dtype=np.int64)
    values = np.asarray(chunk[1], dtype=np.float64)
    if len(chunk) == 3:
        return dests, np.repeat(values, chunk[2])
    return dests, np.ascontiguousarray(np.broadcast_to(values, dests.shape))


def _reference(combiner, chunks):
    dests, values = zip(*map(_per_message, chunks))
    return reference_deliver(dests, values, combiner)


def _filled(combiner, chunks):
    buf = MessageBuffer(combiner, num_vertices=_MAX_DEST + 1)
    for chunk in chunks:
        buf.send(np.asarray(chunk[0], dtype=np.int64), *chunk[1:])
    return buf


def _bytes(delivery):
    return [(a.dtype, a.tobytes()) for a in delivery]


_COMBINERS = ["sum", "min", None]


class TestAgainstReference:
    """``deliver`` returns the bytes of the lexsort → unique → ufunc.at
    reference, on all three arrays."""

    @pytest.mark.parametrize("combiner", _COMBINERS)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bytes(self, combiner, data):
        chunks = data.draw(_chunks(combiner))
        expected = _reference(combiner, chunks)
        # Small chunks split a sum delivery between and inside runs' worth.
        chunk = data.draw(st.sampled_from([1, 2, 3, 7, messages.DELIVER_CHUNK]))
        with mock.patch.object(messages, "DELIVER_CHUNK", chunk):
            delivery = _filled(combiner, chunks).deliver()
        assert _bytes(delivery) == _bytes(expected)

    @pytest.mark.parametrize("combiner", ["sum", "min"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, combiner, data):
        """The fault-recovery contract: the same multiset of messages,
        arriving in another chunk and element order, combines to the
        same bytes."""
        chunks = data.draw(_chunks(combiner))
        flat = [
            (int(d), float(v))
            for chunk in chunks
            for d, v in zip(*_per_message(chunk))
        ]
        shuffled = data.draw(st.permutations(flat))
        cuts = data.draw(
            st.lists(st.integers(0, len(flat)), max_size=4).map(sorted)
        )
        rechunked = [
            tuple(map(list, zip(*shuffled[lo:hi])))
            for lo, hi in zip([0] + cuts, cuts + [len(flat)])
            if hi > lo
        ]
        first = _filled(combiner, chunks).deliver()
        second = _filled(combiner, rechunked).deliver()
        assert _bytes(first) == _bytes(second)


class TestRuns:
    """A run — ``(value, count)`` — is the unit the buffer stores; how a
    multicast is cut into runs never shows in what a barrier delivers."""

    @pytest.mark.parametrize("combiner", _COMBINERS)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_whole_split_and_scalar_sends_agree(self, combiner, data):
        background = data.draw(_chunks(combiner))
        dests = data.draw(
            st.lists(st.integers(0, _MAX_DEST), min_size=1, max_size=8)
        )
        value = data.draw(_values(combiner))
        cut = data.draw(st.integers(0, len(dests)))
        whole = [(dests, [value], [len(dests)])]
        split = [(dests, [value, value], [cut, len(dests) - cut])]
        scalars = [([d], value) for d in dests]
        expected = _bytes(_reference(combiner, background + whole))
        for form in (whole, split, scalars):
            delivery = _filled(combiner, background + form).deliver()
            assert _bytes(delivery) == expected

    def test_one_value_per_run(self):
        buf = MessageBuffer("sum")
        assert buf.send(np.array([4, 2, 4, 9]), [0.5, 7.0, 2.0], [2, 0, 2]) == 4
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [2, 4, 9]
        assert values.tolist() == [0.5, 2.5, 2.0]
        assert counts.tolist() == [1, 2, 1]

    def test_all_zero_counts_send_nothing(self):
        buf = MessageBuffer("sum")
        assert buf.send(np.zeros(0, dtype=np.int64), [1.0, 2.0], [0, 0]) == 0
        assert buf.pending == 0
        assert buf.deliver()[0].size == 0

    @pytest.mark.parametrize(
        "values, counts, match",
        [
            ([1.0, 2.0], [3], "one entry per run"),
            ([1.0], [2, 1], "one entry per run"),
            (1.0, [3], "one entry per run"),
            ([1.0, 2.0], [1, 1], "counts sum to 2, not the 3"),
            ([1.0, 2.0], [2, 2], "counts sum to 4, not the 3"),
        ],
    )
    def test_misaligned_runs_rejected(self, values, counts, match):
        buf = MessageBuffer("sum")
        with pytest.raises(ValueError, match=match):
            buf.send(np.array([1, 2, 3]), values, counts)
        assert buf.pending == 0

    @pytest.mark.parametrize("combiner", _COMBINERS)
    def test_negative_count_rejected_at_the_barrier(self, combiner):
        buf = MessageBuffer(combiner)
        buf.send(np.array([1, 2, 3]), [1.0, 2.0], [4, -1])
        with pytest.raises(ValueError, match="a run of -1 messages"):
            buf.deliver()
        assert buf.pending == 0

    def test_pending_counts_messages_not_runs(self):
        buf = MessageBuffer("min")
        buf.send(np.arange(5), [1.0, 2.0], [2, 3])
        buf.send(np.arange(7), 3.0)
        assert buf.pending == 12
        buf.deliver()
        buf.send(np.arange(4), [1.0], [4])
        assert (buf.pending, buf.peak_pending) == (4, 12)


class TestDestinationRange:
    """A destination that is not a vertex id is an error at the barrier,
    not a wrap-around into the last vertices' state."""

    @pytest.mark.parametrize("combiner", ["sum", "min", None])
    @pytest.mark.parametrize("bad", [-1, 64, 1 << 40])
    def test_out_of_range_rejected(self, combiner, bad):
        buf = MessageBuffer(combiner, num_vertices=64)
        buf.send(np.array([3, bad, 5]), 1.0)
        with pytest.raises(ValueError, match=rf"{bad} .*num_vertices=64"):
            buf.deliver()

    @pytest.mark.parametrize("combiner", ["sum", "min", None])
    def test_negative_rejected_without_a_vertex_count(self, combiner):
        buf = MessageBuffer(combiner)
        buf.send(np.array([0, -7]), 1.0)
        with pytest.raises(ValueError, match="-7"):
            buf.deliver()

    def test_last_vertex_is_in_range(self):
        buf = MessageBuffer("sum", num_vertices=64)
        buf.send(np.array([63, 0]), 1.0)
        assert buf.deliver()[0].tolist() == [0, 63]

    @pytest.mark.parametrize("combiner", ["sum", "min", None])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_engine_run_raises(self, combiner, bad):
        """Unchecked, the run completes: ``-1`` lands in vertex 63's
        state and ``64`` reaches ``run_on_message`` as is."""

        class Stray(VertexProgram):
            def __init__(self):
                self.received = []

            def run(self, g, vertex):
                if vertex == 0:
                    g.send_message(np.array([bad]), 1.0)

            def run_on_message(self, g, vertex, value):
                self.received.append(vertex)

        Stray.combiner = combiner
        ring = np.column_stack((np.arange(64), (np.arange(64) + 1) % 64))
        engine = engine_for(build_directed(ring, 64, name="ring"))
        program = Stray()
        with pytest.raises(ValueError, match=rf"{bad} .*num_vertices=64"):
            engine.run(program, max_iterations=2)
        assert program.received == []

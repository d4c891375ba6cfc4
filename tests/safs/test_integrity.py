"""Tests for the per-page checksum layer (``repro.safs.integrity``).

Covers the checksum algebra (vectorized/scalar agreement, tail pages,
word-order sensitivity), the :class:`IntegrityMap` bookkeeping, the
hypothesis round-trip/corruption-detection properties the issue calls
for, and the end-to-end wiring: a fault-free SAFS stack skips
checksumming entirely (the golden fast path), while injected silent
corruption is detected and — without parity — surfaces as a clean
:class:`UnrecoverableIOError`, never wrong data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.integrity import (
    IntegrityError,
    IntegrityMap,
    page_checksum,
    page_checksums,
)
from repro.sim.faults import FaultPlan, FaultPolicy, SilentCorruption, UnrecoverableIOError
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

PAGE = 4096


def _rng_bytes(seed: int, length: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=length, dtype=np.uint8).tobytes()


class TestChecksumAlgebra:
    def test_vectorized_matches_scalar(self):
        data = _rng_bytes(0, PAGE * 3)
        sums = page_checksums(data, PAGE)
        for i in range(3):
            assert int(sums[i]) == page_checksum(data[i * PAGE : (i + 1) * PAGE])

    def test_tail_page_matches_scalar(self):
        # A file whose last page is short: the zero padding must not
        # change the checksum relative to the scalar path on raw bytes.
        data = _rng_bytes(1, PAGE * 2 + 100)
        sums = page_checksums(data, PAGE)
        assert sums.size == 3
        assert int(sums[2]) == page_checksum(data[2 * PAGE :])

    def test_short_page_differs_from_padded_twin(self):
        # The length salt: a 100-byte page and the same bytes padded to a
        # full page must not collide.
        short = _rng_bytes(2, 100)
        assert page_checksum(short) != page_checksum(short + b"\x00" * (PAGE - 100))

    def test_word_swap_changes_checksum(self):
        # Position-dependent lane weights: swapping two 8-byte words must
        # change the fold (a plain XOR fold would not notice).
        a, b = _rng_bytes(3, 8), _rng_bytes(4, 8)
        assert page_checksum(a + b) != page_checksum(b + a)

    def test_empty_data(self):
        assert page_checksums(b"", PAGE).size == 0

    def test_page_size_must_be_multiple_of_8(self):
        with pytest.raises(ValueError):
            page_checksums(b"x" * 64, 12)


class TestChecksumProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=600), st.sampled_from([64, 128, 256]))
    def test_round_trip_per_page(self, data, page_size):
        """Vectorized per-page sums equal the scalar sum of each slice."""
        sums = page_checksums(data, page_size)
        assert sums.size == -(-len(data) // page_size)
        for i in range(sums.size):
            chunk = data[i * page_size : (i + 1) * page_size]
            assert int(sums[i]) == page_checksum(chunk)

    @settings(max_examples=50, deadline=None)
    @given(
        st.binary(min_size=1, max_size=256),
        st.data(),
    )
    def test_any_single_bit_flip_is_detected(self, data, draw):
        """Flipping any one bit changes the checksum (bit rot never
        passes verification unnoticed)."""
        bit = draw.draw(st.integers(min_value=0, max_value=len(data) * 8 - 1))
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert page_checksum(data) != page_checksum(bytes(mutated))


class TestIntegrityMap:
    def test_register_and_verify(self):
        data = _rng_bytes(5, PAGE * 4)
        imap = IntegrityMap(PAGE)
        imap.register(7, data)
        assert imap.covers(7)
        assert not imap.covers(8)
        assert imap.num_pages(7) == 4
        for i in range(4):
            imap.verify(7, i, data[i * PAGE : (i + 1) * PAGE])

    def test_verify_rejects_mutation(self):
        data = bytearray(_rng_bytes(6, PAGE))
        imap = IntegrityMap(PAGE)
        imap.register(0, bytes(data))
        data[123] ^= 0xFF
        with pytest.raises(IntegrityError):
            imap.verify(0, 0, bytes(data))

    def test_verify_out_of_range_page(self):
        imap = IntegrityMap(PAGE)
        imap.register(0, bytes(PAGE))
        with pytest.raises(IntegrityError):
            imap.verify(0, 5, bytes(PAGE))

    def test_double_registration_rejected(self):
        imap = IntegrityMap(PAGE)
        imap.register(0, bytes(PAGE))
        with pytest.raises(ValueError):
            imap.register(0, bytes(PAGE))

    def test_odd_page_size_falls_back_to_scalar(self):
        data = _rng_bytes(7, 100)
        imap = IntegrityMap(12)  # not a multiple of 8
        imap.register(0, data)
        imap.verify(0, 2, data[24:36])
        with pytest.raises(IntegrityError):
            imap.verify(0, 2, b"x" * 12)


def _stack(plan=None, policy=None):
    array = SSDArray(
        SSDArrayConfig(num_ssds=4, stripe_pages=2), fault_plan=plan
    )
    return SAFS(
        array,
        SAFSConfig(page_size=PAGE, cache_bytes=1 << 20),
        stats=array.stats,
        fault_policy=policy,
    )


class TestStackWiring:
    def test_fault_free_stack_skips_checksumming(self):
        """No fault plan, no parity: the integrity layer must not even
        exist — the legacy fast path stays untouched."""
        safs = _stack()
        assert safs.scheduler.integrity is None

    def test_faulty_stack_checksums_every_file(self):
        plan = FaultPlan([], seed=3)
        safs = _stack(plan)
        file = safs.create_file("a", _rng_bytes(8, PAGE * 8))
        imap = safs.scheduler.integrity
        assert imap is not None and imap.covers(file.file_id)
        assert imap.num_pages(file.file_id) == 8

    def test_silent_corruption_detected_and_aborts_without_parity(self):
        """Injected rot is caught by the media check and — with no parity
        to reconstruct from — exhausts retries into a clean abort."""
        plan = FaultPlan(
            [SilentCorruption(device=1, start=0.0, end=10.0, probability=1.0)],
            seed=11,
        )
        safs = _stack(plan, FaultPolicy(max_retries=2))
        file = safs.create_file("a", _rng_bytes(9, PAGE * 16))
        with pytest.raises(UnrecoverableIOError):
            safs.scheduler.dispatch_span(file, 0, 15, 0.0)
        assert safs.stats.get("integrity.checksum_failures") > 0

    def test_corruption_is_persistent_per_page(self):
        """The same rotted page fails again on retry: rot is a pure
        function of (seed, device, page, window), not a coin per read."""
        corruption = SilentCorruption(device=0, start=0.0, end=10.0, probability=0.5)
        plan = FaultPlan([corruption], seed=5)
        hits = [plan.corrupted(0, page, 1.0) for page in range(64)]
        assert any(hits) and not all(hits)
        assert hits == [plan.corrupted(0, page, 1.0) for page in range(64)]

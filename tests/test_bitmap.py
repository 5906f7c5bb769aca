"""Unit tests for the bitmap data advertisements (Section IV-D)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Bitmap

from oracles import oracle_presence_counts, oracle_rarest


def ones(bitmap):
    """Indices of the packets ``bitmap`` holds, ascending."""
    return [index for index in range(bitmap.size) if bitmap.get(index)]


def bits(value):
    """Indices of the set bits of ``value``, ascending."""
    return [index for index in range(value.bit_length()) if value >> index & 1]


def test_new_bitmap_is_empty():
    bitmap = Bitmap(10)
    assert bitmap.count() == 0
    assert bitmap.missing_count() == 10
    assert not bitmap.is_complete()


def test_set_get_and_clear():
    bitmap = Bitmap(10)
    bitmap.set(3)
    assert bitmap.get(3)
    bitmap.set(3, False)
    assert not bitmap.get(3)


def test_out_of_range_indices_raise():
    bitmap = Bitmap(5)
    with pytest.raises(IndexError):
        bitmap.set(5)
    with pytest.raises(IndexError):
        bitmap.get(-1)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Bitmap(-1)


def test_ones_and_missing_partition_indices():
    bitmap = Bitmap(6, set_bits=[0, 2, 4])
    assert ones(bitmap) == [0, 2, 4]
    assert bits(bitmap.missing_mask()) == [1, 3, 5]
    assert set(ones(bitmap)) | set(bits(bitmap.missing_mask())) == set(range(6))


def test_missing_ignores_padding_bits():
    bitmap = Bitmap(10, set_bits=range(8))
    assert bits(bitmap.missing_mask()) == [8, 9]
    assert Bitmap.full(10).missing_mask() == 0


def test_full_bitmap_is_complete():
    bitmap = Bitmap.full(9)
    assert bitmap.is_complete()
    assert bitmap.count() == 9


def test_get_matches_bits_and_len_is_size():
    bitmap = Bitmap(4, set_bits=[1, 3])
    assert [bitmap.get(index) for index in range(4)] == [False, True, False, True]
    assert len(bitmap) == 4
    assert not Bitmap(0)  # an empty bitmap is falsy through __len__


def test_equality_and_copy():
    a = Bitmap(12, set_bits=[1, 5, 11])
    b = a.copy()
    assert a == b
    b.set(0)
    assert a != b


def test_union_difference():
    a = Bitmap(8, set_bits=[0, 1, 2])
    b = Bitmap(8, set_bits=[2, 3])
    assert ones(a.union(b)) == [0, 1, 2, 3]
    assert ones(a.difference(b)) == [0, 1]
    assert ones(b.difference(a)) == [3]


def test_set_algebra_requires_same_size():
    with pytest.raises(ValueError):
        Bitmap(4).union(Bitmap(5))


def test_wire_encoding_roundtrip():
    bitmap = Bitmap(19, set_bits=[0, 7, 8, 18])
    decoded = Bitmap.from_bytes(19, bitmap.to_bytes())
    assert decoded == bitmap
    assert decoded.wire_size == (19 + 7) // 8


def test_wire_encoding_rejects_wrong_length():
    with pytest.raises(ValueError):
        Bitmap.from_bytes(19, b"\x00")


def test_wire_encoding_clears_padding_bits():
    payload = bytes([0xFF, 0xFF])
    bitmap = Bitmap.from_bytes(9, payload)
    assert bitmap.count() == 9  # only 9 valid bits despite 16 set bits on the wire


def mask(*indices):
    """The int with bit ``i`` set for each of ``indices``."""
    return sum(1 << index for index in indices)


def test_rarity_counts_missing_across_bitmaps():
    peers = [Bitmap(4, set_bits=[0]), Bitmap(4, set_bits=[0, 1]), Bitmap(4)]
    # Packets 0..3 are held by 2, 1, 0 and 0 of the three peers.
    assert Bitmap.rarest(mask(0, 1, 2, 3), peers) == 1
    assert Bitmap.rarest(mask(0, 1), peers) == 1
    assert Bitmap.rarest(mask(0), peers) == 0
    # A packet no known bitmap holds is never picked.
    assert Bitmap.rarest(mask(2, 3), peers) is None
    # Only the candidates are counted, whatever a known bitmap's length:
    # bit 9 of a longer bitmap and the end of a shorter one change nothing.
    assert Bitmap.rarest(mask(0, 1), [Bitmap(10, set_bits=[0, 1, 9]), Bitmap(2, set_bits=[0])]) == 1
    assert Bitmap.rarest(mask(1, 9), [Bitmap(2, set_bits=[1])]) == 1
    assert Bitmap.rarest(mask(9), [Bitmap(2, set_bits=[1]), Bitmap(12, set_bits=[8, 10])]) is None


def test_rarest_ranks_by_rarity_then_rotated_order():
    # Packets 0..4 are held by 2, 2, 1, 1 and 0 of the three peers.
    peers = [Bitmap(5, set_bits=[0, 1, 2, 3]), Bitmap(5, set_bits=[0, 1]), Bitmap(5)]
    everything = mask(0, 1, 2, 3, 4)
    assert Bitmap.rarest(everything, peers, 0) == 2
    assert Bitmap.rarest(everything, peers, 3) == 3  # rotation breaks the tie
    assert Bitmap.rarest(everything, peers, 4) == 2  # wraps round past the unheld packet 4
    assert Bitmap.rarest(mask(0, 1), peers, 0) == 0
    assert Bitmap.rarest(mask(0, 1), peers, 1) == 1
    assert Bitmap.rarest(mask(0, 2), peers, 1) == 2  # rarity beats the rotation
    assert Bitmap.rarest(0, peers, 0) is None
    assert Bitmap.rarest(mask(4), peers, 0) is None  # held by nobody
    assert Bitmap.rarest(mask(5), [], 3) is None  # no knowledge: nothing is held


def test_first_is_the_rotated_sequence_order():
    assert Bitmap.first(mask(1, 5), 3) == 5
    assert Bitmap.first(mask(1, 5), 5) == 5
    assert Bitmap.first(mask(1, 5), 6) == 1  # wraps round to the lowest index
    assert Bitmap.first(mask(1, 5)) == 1
    assert Bitmap.first(0, 2) is None


def _scatter(size, seed, density):
    rng = random.Random(seed)
    return {index for index in range(size) if rng.random() < density}


def index_sets(size):
    """A set of indices below ``size``, each present with one drawn density (0 and 1 included)."""
    densities = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(0.0, 1.0))
    return st.builds(_scatter, st.just(size), st.integers(0, 2**32 - 1), densities)


def bitmaps_of(size):
    return index_sets(size).map(lambda ones: Bitmap(size, set_bits=ones))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rarest_is_the_list_key_ranking(data):
    size = data.draw(st.integers(min_value=1, max_value=300))
    # Up to 24 known bitmaps (five bit-planes), some shorter or longer than ``size``.
    sizes = st.one_of(st.just(size), st.integers(min_value=1, max_value=320))
    known = data.draw(st.lists(sizes.flatmap(bitmaps_of), max_size=24))
    if data.draw(st.booleans()):
        known += [known[-1] if known else Bitmap.full(size)] * data.draw(st.integers(0, 24 - len(known)))
    candidates = data.draw(index_sets(size))
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    presence = oracle_presence_counts(size, known)
    held = [index for index in sorted(candidates) if presence[index] > 0]
    expected = oracle_rarest(held, presence, len(known), offset, size)
    assert Bitmap.rarest(mask(*candidates), known, offset) == expected


def test_missing_mask_clears_present_and_excluded_packets():
    bitmap = Bitmap(10, set_bits=[0, 3])
    assert bitmap.missing_mask() == mask(1, 2, 4, 5, 6, 7, 8, 9)
    assert bitmap.missing_mask([1, 3, 9]) == mask(2, 4, 5, 6, 7, 8)
    assert Bitmap.full(9).missing_mask() == 0


def test_all_set_checks_one_range():
    bitmap = Bitmap(20, set_bits=range(5, 17))
    assert bitmap.all_set(5, 17) and bitmap.all_set(6, 9) and bitmap.all_set(3, 3)
    assert not bitmap.all_set(4, 17) and not bitmap.all_set(5, 18)
    assert Bitmap.full(20).all_set(0, 20)
    with pytest.raises(IndexError):
        bitmap.all_set(5, 21)


def test_compact_encoding_is_one_bit_per_packet():
    # The paper's point: a 10 000-packet collection fits in ~1.2 kB.
    bitmap = Bitmap(10_240)
    assert bitmap.wire_size == 1280

"""Unit tests for the bitmap data advertisements (Section IV-D)."""

import pytest

from repro.core import Bitmap


def ones(bitmap):
    """Indices of the packets ``bitmap`` holds, ascending."""
    return [index for index in range(bitmap.size) if bitmap.get(index)]


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
    assert bitmap.missing() == [1, 3, 5]
    assert set(ones(bitmap)) | set(bitmap.missing()) == set(range(6))


def test_missing_ignores_padding_bits():
    bitmap = Bitmap(10, set_bits=range(8))
    assert bitmap.missing() == [8, 9]
    assert Bitmap.full(10).missing() == []


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


def test_rarity_counts_missing_across_bitmaps():
    peers = [Bitmap(4, set_bits=[0]), Bitmap(4, set_bits=[0, 1]), Bitmap(4)]
    presence = Bitmap.presence_counts(4, peers)
    assert presence == [2, 1, 0, 0]
    # Rarity, how many bitmaps lack a packet, is len(peers) - presence.
    assert [len(peers) - count for count in presence] == [1, 2, 3, 3]
    # Bits beyond ``size`` (a longer bitmap) are not counted.
    assert Bitmap.presence_counts(2, [Bitmap(10, set_bits=[1, 9])]) == [0, 1]


def test_rarest_ranks_by_rarity_then_rotated_order():
    presence = [2, 1, 0, 0]
    assert Bitmap.rarest(range(4), presence, 3, 0, 4) == 2
    assert Bitmap.rarest(range(4), presence, 3, 3, 4) == 3  # rotation breaks the tie
    assert Bitmap.rarest([0, 1], presence, 3, 0, 4) == 1
    assert Bitmap.rarest([0, 1], presence, 3, 1, 4) == 1  # rarity beats the rotation
    assert Bitmap.rarest([], presence, 3, 0, 4) is None


def test_compact_encoding_is_one_bit_per_packet():
    # The paper's point: a 10 000-packet collection fits in ~1.2 kB.
    bitmap = Bitmap(10_240)
    assert bitmap.wire_size == 1280

"""Unit tests for the neighbour-knowledge store (Section V)."""

from repro.core import Bitmap, NeighborKnowledge


def test_observe_bitmap_and_query():
    knowledge = NeighborKnowledge(timeout=10.0)
    knowledge.observe_bitmap("peer-1", "coll", Bitmap(4, set_bits=[1, 2]), now=0.0)
    assert knowledge.neighbor_bitmap("peer-1", "coll", now=1.0) == Bitmap(4, set_bits=[1, 2])
    assert knowledge.neighbors_with_collection("coll", now=1.0) == ["peer-1"]
    assert knowledge.someone_has_packet("coll", 1, now=1.0)
    assert not knowledge.someone_has_packet("coll", 3, now=1.0)


def test_entries_expire_after_timeout():
    knowledge = NeighborKnowledge(timeout=5.0)
    knowledge.observe_bitmap("peer-1", "coll", Bitmap(4, set_bits=[0]), now=0.0)
    assert knowledge.neighbor_bitmap("peer-1", "coll", now=20.0) is None
    assert not knowledge.someone_has_packet("coll", 0, now=20.0)
    assert knowledge.neighbors_with_collection("coll", now=20.0) == []


def test_exclude_filters_neighbours():
    knowledge = NeighborKnowledge()
    knowledge.observe_bitmap("requester", "coll", Bitmap(4, set_bits=[0]), now=0.0)
    assert not knowledge.someone_has_packet("coll", 0, now=1.0, exclude={"requester"})
    assert knowledge.someone_has_packet("coll", 0, now=1.0, exclude={"someone-else"})


def test_observe_interest_marks_interest_without_bitmap():
    knowledge = NeighborKnowledge()
    knowledge.observe_interest("peer-2", "coll", now=0.0)
    assert knowledge.neighbors_with_collection("coll", now=1.0) == ["peer-2"]
    assert knowledge.neighbor_bitmap("peer-2", "coll", now=1.0) is None


def test_observe_data_marks_collection_nearby():
    knowledge = NeighborKnowledge(timeout=5.0)
    knowledge.observe_data("coll", 7, now=0.0)
    assert knowledge.data_recently_heard("coll", now=2.0)
    assert knowledge.data_recently_heard("coll", now=2.0, packet_index=7)
    assert knowledge.knows_collection("coll", now=2.0)
    assert not knowledge.data_recently_heard("coll", now=20.0)


def test_forget_neighbor_removes_records():
    knowledge = NeighborKnowledge()
    knowledge.observe_bitmap("peer-1", "coll", Bitmap(4, set_bits=[0]), now=0.0)
    knowledge.observe_bitmap("peer-1", "other", Bitmap(4, set_bits=[0]), now=0.0)
    knowledge.forget_neighbor("peer-1")
    assert len(knowledge) == 0


def test_prune_removes_stale_entries():
    knowledge = NeighborKnowledge(timeout=5.0)
    knowledge.observe_bitmap("old", "coll", Bitmap(4), now=0.0)
    knowledge.observe_bitmap("new", "coll", Bitmap(4), now=9.0)
    knowledge.observe_data("coll", None, now=0.0)
    removed = knowledge.prune(now=10.0)
    assert removed >= 1
    assert knowledge.neighbors_with_collection("coll", now=10.0) == ["new"]


def test_state_size_counts_bitmaps():
    knowledge = NeighborKnowledge()
    knowledge.observe_bitmap("p", "coll", Bitmap(800), now=0.0)
    assert knowledge.state_size_bytes >= 100

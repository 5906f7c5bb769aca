"""Unit tests for the Content Store and PIT."""

import pytest

from repro.ndn import AppFace, ContentStore, Data, Forwarder, Interest, Name, Pit


# --------------------------------------------------------------- content store
def test_cs_insert_and_exact_match():
    cs = ContentStore(capacity=10)
    data = Data(name=Name("/a/0"), content=b"x")
    cs.insert(data)
    assert cs.find(Interest(name=Name("/a/0"))) is data
    assert Name("/a/0") in cs and len(cs) == 1


def test_cs_miss_returns_none():
    cs = ContentStore()
    cs.insert(Data(name=Name("/present"), content=b"x"))
    assert cs.find(Interest(name=Name("/missing"))) is None
    assert Name("/missing") not in cs and len(cs) == 1


def test_cs_prefix_match_with_can_be_prefix():
    cs = ContentStore()
    cs.insert(Data(name=Name("/a/b/1"), content=b"x"))
    assert cs.find(Interest(name=Name("/a/b"), can_be_prefix=True)) is not None
    assert cs.find(Interest(name=Name("/a/b"))) is None


def test_cs_lru_eviction():
    cs = ContentStore(capacity=2)
    cs.insert(Data(name=Name("/1"), content=b"1"))
    cs.insert(Data(name=Name("/2"), content=b"2"))
    cs.find(Interest(name=Name("/1")))  # touch /1 so /2 becomes LRU
    cs.insert(Data(name=Name("/3"), content=b"3"))
    assert Name("/1") in cs
    assert Name("/2") not in cs
    assert Name("/3") in cs
    assert len(cs) == 2


def test_cs_zero_capacity_stores_nothing():
    cs = ContentStore(capacity=0)
    cs.insert(Data(name=Name("/a"), content=b"x"))
    assert len(cs) == 0


def test_cs_reinsert_same_name_refreshes():
    cs = ContentStore(capacity=2)
    cs.insert(Data(name=Name("/a"), content=b"old"))
    cs.insert(Data(name=Name("/a"), content=b"new"))
    assert len(cs) == 1
    assert cs.find(Interest(name=Name("/a"))).content == b"new"


def test_cs_size_bytes_nonzero():
    cs = ContentStore()
    cs.insert(Data(name=Name("/a"), content=b"x" * 100))
    assert cs.size_bytes > 100


# ------------------------------------------------------------------------- pit
def test_pit_insert_new_entry():
    pit = Pit()
    interest = Interest(name=Name("/a/0"))
    entry, is_new, is_loop = pit.insert(interest, incoming_face_id=1, now=0.0)
    assert is_new and not is_loop
    assert entry.in_faces == {1}
    assert len(pit) == 1


def test_pit_aggregates_second_face():
    pit = Pit()
    pit.insert(Interest(name=Name("/a/0")), 1, now=0.0)
    entry, is_new, is_loop = pit.insert(Interest(name=Name("/a/0")), 2, now=0.5)
    assert not is_new and not is_loop
    assert entry.in_faces == {1, 2}
    assert len(pit) == 1


def test_pit_detects_looped_nonce():
    pit = Pit()
    interest = Interest(name=Name("/a/0"))
    pit.insert(interest, 1, now=0.0)
    entry, is_new, is_loop = pit.insert(interest, 2, now=0.1)
    assert is_loop and not is_new
    assert entry.in_faces == {1}


def test_pit_retransmission_from_same_face_refreshes_expiry():
    pit = Pit()
    interest = Interest(name=Name("/a/0"), lifetime=1.0)
    entry, _, _ = pit.insert(interest, 1, now=0.0)
    first_expiry = entry.expiry
    pit.insert(interest, 1, now=0.5)
    assert entry.expiry > first_expiry


def test_pit_satisfy_removes_matching_entries():
    pit = Pit()
    pit.insert(Interest(name=Name("/a/0")), 1, now=0.0)
    pit.insert(Interest(name=Name("/b/0")), 1, now=0.0)
    satisfied = pit.satisfy(Data(name=Name("/a/0"), content=b""))
    assert [entry.name for entry in satisfied] == [Name("/a/0")]
    assert Name("/a/0") not in pit
    assert Name("/b/0") in pit


def test_pit_prefix_entry_matches_longer_data():
    pit = Pit()
    pit.insert(Interest(name=Name("/a"), can_be_prefix=True), 1, now=0.0)
    satisfied = pit.satisfy(Data(name=Name("/a/b/c"), content=b""))
    assert len(satisfied) == 1


def test_pit_expire_removes_old_entries(sim):
    # Entries expire through the forwarder, which counts them.
    forwarder = Forwarder(sim, "n")
    face = forwarder.add_face(AppFace())
    face.express_interest(Interest(name=Name("/a"), lifetime=1.0))
    face.express_interest(Interest(name=Name("/b"), lifetime=10.0))
    sim.run(until=5.0)
    assert [entry.name for entry in forwarder.pit.entries()] == [Name("/b")]
    assert forwarder.stats.pit_expirations == 1


def test_pit_size_bytes_positive():
    pit = Pit()
    pit.insert(Interest(name=Name("/a/b/c")), 1, now=0.0)
    assert pit.size_bytes > 0

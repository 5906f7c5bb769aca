"""Unit tests for NDN names."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ndn import Name


def test_parse_from_uri_string():
    name = Name("/damaged-bridge-1533783192/bridge-picture/0")
    assert name.components == ("damaged-bridge-1533783192", "bridge-picture", "0")
    assert len(name) == 3
    assert str(name) == "/damaged-bridge-1533783192/bridge-picture/0"


def test_root_name():
    root = Name()
    assert len(root) == 0
    assert str(root) == "/"


def test_parse_ignores_duplicate_slashes():
    assert Name("//a///b/") == Name("/a/b")


def test_construct_from_components():
    assert Name(["a", "b"]) == Name("/a/b")


def test_construct_from_name_is_identity():
    name = Name("/a/b")
    assert Name(name) == name


def test_component_with_slash_rejected():
    with pytest.raises(ValueError):
        Name(["a/b"])


def test_append_components():
    name = Name("/collection").append("file", "0")
    assert name == Name("/collection/file/0")


def test_append_splits_slashes():
    assert Name("/a").append("b/c") == Name("/a/b/c")


def test_prefix_and_parent():
    name = Name("/a/b/c")
    assert name.prefix(2) == Name("/a/b")
    assert name.parent() == Name("/a/b")
    with pytest.raises(ValueError):
        Name().parent()


def test_is_prefix_of():
    assert Name("/a").is_prefix_of("/a/b/c")
    assert Name("/a/b/c").is_prefix_of("/a/b/c")
    assert not Name("/a/b/c/d").is_prefix_of("/a/b/c")
    assert not Name("/x").is_prefix_of("/a/b")
    assert Name().is_prefix_of("/anything")


def test_equality_with_string():
    # A Name is its component tuple: it equals a Name or that tuple, never
    # the str it was parsed from (compare with Name(text) instead).
    assert Name("/a/b") == Name("/a/b") == ("a", "b")
    assert Name("/a/b") != "/a/b"
    assert Name("/a/b") != Name("/a/c")
    assert Name("/a/b") == Name("/a/b").components


def test_hashable_and_usable_as_dict_key():
    table = {Name("/a/b"): 1}
    assert table[Name("/a/b")] == 1


def test_ordering_is_component_wise():
    assert Name("/a/b") < Name("/a/c")
    assert sorted([Name("/b"), Name("/a/z"), Name("/a")]) == [Name("/a"), Name("/a/z"), Name("/b")]


def test_indexing_and_iteration():
    name = Name("/a/b/c")
    assert name[0] == "a"
    assert name[-1] == "c"
    assert list(name) == ["a", "b", "c"]


def test_wire_size_grows_with_components():
    assert Name("/a/b/c").wire_size > Name("/a").wire_size


def test_join_helper():
    assert Name.join(["/a/b", "c", Name("/d")]) == Name("/a/b/c/d")


component = st.text(min_size=1, max_size=6).filter(lambda text: "/" not in text)
components = st.lists(component, max_size=5)
name_inputs = st.one_of(
    components.map(lambda parts: "/" + "/".join(parts)),  # str
    components,                                             # list of str
    components.map(tuple),                                  # tuple of str
    components.map(Name),                                   # Name
)


@given(name_inputs, st.integers(min_value=0, max_value=6))
def test_name_is_its_component_tuple(value, k):
    name = Name(value)
    parts = tuple(part for part in value.split("/") if part) if isinstance(value, str) else tuple(value)
    assert type(name.components) is tuple and name.components == parts
    assert hash(name) == hash(parts)
    assert name == parts
    copy = pickle.loads(pickle.dumps(name))
    assert type(copy) is Name and copy == name
    # A slice is a plain tuple: the suppression strategy's key.
    assert type(name[:k]) is tuple and name[:k] == parts[:k]
    assert Name(str(name)) == name
    assert name.wire_size == sum(len(part.encode("utf-8")) + 2 for part in parts) + 2

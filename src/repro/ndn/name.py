"""Hierarchical NDN names.

A name is an ordered list of components, written ``/component1/component2/...``.
Names are semantically meaningful and independent of node location — the
property DAPES builds its whole design on.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

NameLike = Union["Name", str, Sequence[str]]


class Name(tuple):
    """An immutable hierarchical name: the tuple of its components.

    Being a ``tuple`` is the whole implementation of the hot operations —
    hashing, equality, ``len``, indexing and iteration run in C on every
    PIT/CS lookup.  ``hash(name) == hash(name.components)``, and a name
    equals another name or its component tuple, never a ``str``: compare
    with ``Name(text)``.  Slicing returns a plain tuple.

    Examples
    --------
    >>> name = Name("/damaged-bridge-1533783192/bridge-picture/0")
    >>> name.components
    ('damaged-bridge-1533783192', 'bridge-picture', '0')
    >>> Name("/damaged-bridge-1533783192").is_prefix_of(name)
    True
    >>> name[-1]
    '0'
    """

    __slots__ = ()

    def __new__(cls, value: NameLike = ()):
        # Names are immutable, so constructing a Name from a Name is the
        # identity — this happens on every normalization call in the
        # forwarder/namespace hot paths.
        if type(value) is cls:
            return value
        if isinstance(value, str):
            # Splitting on "/" cannot leave a "/" inside a component, so the
            # validation loop below is only needed for sequence input.
            return tuple.__new__(cls, [part for part in value.split("/") if part])
        components = tuple(str(part) for part in value)
        for component in components:
            if "/" in component:
                raise ValueError(f"name component {component!r} must not contain '/'")
        return tuple.__new__(cls, components)

    # ------------------------------------------------------------- accessors
    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "/" + "/".join(self) if self else "/"

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    # ------------------------------------------------------------ operations
    def append(self, *components: str) -> "Name":
        """Return a new name with ``components`` appended."""
        parts: list[str] = list(self)
        for component in components:
            parts.extend(part for part in str(component).split("/") if part)
        return tuple.__new__(Name, parts)

    def prefix(self, length: int) -> "Name":
        """Return the first ``length`` components as a new name."""
        return tuple.__new__(Name, self[:length])

    def parent(self) -> "Name":
        """The name with the last component removed."""
        if not self:
            raise ValueError("the root name has no parent")
        return tuple.__new__(Name, self[:-1])

    def is_prefix_of(self, other: NameLike) -> bool:
        """Whether this name is a (non-strict) prefix of ``other``."""
        if type(other) is not Name:
            other = Name(other)
        return len(self) <= len(other) and other[: len(self)] == self

    @property
    def wire_size(self) -> int:
        """Approximate encoded size in bytes (component TLVs plus name TLV)."""
        # Each component is a TLV of its UTF-8 bytes plus 2; the bytes of
        # the joined components are the sum of theirs.
        return len("".join(self).encode("utf-8")) + 2 * len(self) + 2

    @staticmethod
    def join(parts: Iterable[NameLike]) -> "Name":
        """Concatenate several name-like parts into one name."""
        components: list[str] = []
        for part in parts:
            components.extend(Name(part))
        return tuple.__new__(Name, components)

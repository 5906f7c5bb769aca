"""Hierarchical NDN names.

A name is an ordered list of components, written ``/component1/component2/...``.
Names are semantically meaningful and independent of node location — the
property DAPES builds its whole design on.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

NameLike = Union["Name", str, Sequence[str]]


class Name:
    """An immutable hierarchical name.

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

    __slots__ = ("_components", "_str", "_hash", "_wire_size")

    def __new__(cls, value: NameLike = ()):
        # Names are immutable, so constructing a Name from a Name is the
        # identity — this happens on every normalization call in the
        # forwarder/namespace hot paths.
        if type(value) is cls:
            return value
        self = object.__new__(cls)
        if isinstance(value, str):
            # Splitting on "/" cannot leave a "/" inside a component, so the
            # validation loop below is only needed for sequence input.
            components: tuple[str, ...] = tuple(part for part in value.split("/") if part)
        elif isinstance(value, Name):
            components = value._components
        else:
            components = tuple(str(part) for part in value)
            for component in components:
                if "/" in component:
                    raise ValueError(f"name component {component!r} must not contain '/'")
        self._components = components
        self._str = None
        self._hash = None
        self._wire_size = None
        return self

    @classmethod
    def _unchecked(cls, components: tuple) -> "Name":
        """Internal fast path for components already owned by a Name."""
        name = cls.__new__(cls)
        name._components = components
        name._str = None
        name._hash = None
        name._wire_size = None
        return name

    # ------------------------------------------------------------- accessors
    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, index):
        return self._components[index]

    def __iter__(self):
        return iter(self._components)

    def __str__(self) -> str:
        # Rendered lazily: most Names live and die inside PIT/CS lookups
        # without ever being printed, and the join is measurable at the
        # hot-path construction rates (every prefix()/append() allocates).
        value = self._str
        if value is None:
            components = self._components
            value = self._str = "/" + "/".join(components) if components else "/"
        return value

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __hash__(self) -> int:
        # Names are hashed on every PIT/CS lookup; cache (immutable class).
        value = self._hash
        if value is None:
            value = self._hash = hash(self._components)
        return value

    def __eq__(self, other) -> bool:
        if isinstance(other, Name):
            return self._components == other._components
        if isinstance(other, str):
            return self._components == Name(other)._components
        return NotImplemented

    def __lt__(self, other: "Name") -> bool:
        return self._components < Name(other)._components

    # ------------------------------------------------------------ operations
    def append(self, *components: str) -> "Name":
        """Return a new name with ``components`` appended."""
        extra: list[str] = []
        for component in components:
            extra.extend(part for part in str(component).split("/") if part)
        return Name(self._components + tuple(extra))

    def prefix(self, length: int) -> "Name":
        """Return the first ``length`` components as a new name."""
        return Name._unchecked(self._components[:length])

    def parent(self) -> "Name":
        """The name with the last component removed."""
        if not self._components:
            raise ValueError("the root name has no parent")
        return Name._unchecked(self._components[:-1])

    def is_prefix_of(self, other: NameLike) -> bool:
        """Whether this name is a (non-strict) prefix of ``other``."""
        if not isinstance(other, Name):
            other = Name(other)
        mine = self._components
        theirs = other._components
        if len(mine) > len(theirs):
            return False
        return theirs[: len(mine)] == mine

    @property
    def wire_size(self) -> int:
        """Approximate encoded size in bytes (component TLVs plus name TLV)."""
        value = self._wire_size
        if value is None:
            value = self._wire_size = (
                sum(len(component.encode("utf-8")) + 2 for component in self._components) + 2
            )
        return value

    @staticmethod
    def join(parts: Iterable[NameLike]) -> "Name":
        """Concatenate several name-like parts into one name."""
        result = Name()
        for part in parts:
            result = result.append(*Name(part).components)
        return result
